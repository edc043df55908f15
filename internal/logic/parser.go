package logic

import (
	"errors"
	"fmt"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
)

// Vocabulary resolves atom names to predicates during parsing.
type Vocabulary map[string]knowledge.Predicate

// NewVocabulary builds a vocabulary from predicates, keyed by their names.
func NewVocabulary(preds ...knowledge.Predicate) Vocabulary {
	v := make(Vocabulary, len(preds))
	for _, p := range preds {
		v[p.Name()] = p
	}
	return v
}

// MaxNesting bounds how deeply a formula's operators may nest: Parse
// rejects, with an error wrapping ErrNesting, any formula whose syntax
// tree is more than MaxNesting operators deep. Evaluation, printing and
// keying all recurse on that tree, so the bound keeps untrusted input
// from exhausting a goroutine's stack. The parser's own recursion is
// bounded separately, at twice MaxNesting, so parentheses cannot
// exhaust it either; Print never parenthesizes more than one level per
// operator, so every formula Parse accepts prints to text it accepts.
const MaxNesting = 1000

// ErrNesting reports a formula nested past MaxNesting.
var ErrNesting = errors.New("formula nests too deeply")

// Parse parses the input into an epistemic formula, resolving atoms
// against the vocabulary. Tokens are read as the parser needs them, so
// a formula that fails early costs no more than its prefix.
func Parse(input string, vocab Vocabulary) (knowledge.Formula, error) {
	p := &parser{lx: lexer{input: input}, vocab: vocab}
	p.tok = p.lx.next()
	f, _, err := p.formula()
	if p.lx.err != nil {
		// The parser read the failed token as the end of input, so a
		// lexical error is the cause of whatever followed it.
		return nil, p.lx.err
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input starting with %s", p.peek().describe())
	}
	return f, nil
}

// MustParse is Parse for statically known-valid inputs; it panics on
// error. Intended for tests and examples.
func MustParse(input string, vocab Vocabulary) knowledge.Formula {
	f, err := Parse(input, vocab)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	lx lexer
	// tok is the lookahead token.
	tok   token
	vocab Vocabulary
	// calls counts the nested unary and implication calls in progress.
	calls int
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lx.next()
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errorf("expected %s, found %s", k, t.describe())
	}
	return p.next(), nil
}

// errorf builds a parse error anchored at the current token's byte
// position, so callers can point the user at the offending spot.
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("logic: position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// enter starts one more nested call, failing once the parser's
// recursion passes twice MaxNesting; the caller pairs it with
// p.calls--.
func (p *parser) enter() error {
	if p.calls++; p.calls > 2*MaxNesting {
		return fmt.Errorf("logic: position %d: %w: more than %d nested operators and parentheses",
			p.peek().pos, ErrNesting, 2*MaxNesting)
	}
	return nil
}

// node returns f, whose operators nest depth deep, failing when that is
// past MaxNesting.
func (p *parser) node(f knowledge.Formula, depth int) (knowledge.Formula, int, error) {
	if depth > MaxNesting {
		return nil, 0, fmt.Errorf("logic: position %d: %w: operators nest more than %d deep",
			p.peek().pos, ErrNesting, MaxNesting)
	}
	return f, depth, nil
}

// Each parse method returns its formula with the depth of its syntax
// tree: 0 for an atom or constant, one more than the deepest operand
// for an operator.

// formula := or ('->' formula)?
func (p *parser) formula() (knowledge.Formula, int, error) {
	left, dl, err := p.or()
	if err != nil {
		return nil, 0, err
	}
	if p.peek().kind != tokImplies {
		return left, dl, nil
	}
	p.next()
	if err := p.enter(); err != nil {
		return nil, 0, err
	}
	right, dr, err := p.formula()
	if err != nil {
		return nil, 0, err
	}
	p.calls--
	return p.node(knowledge.Implies(left, right), max(dl, dr)+1)
}

// or := and ('|' and)*
func (p *parser) or() (knowledge.Formula, int, error) {
	left, dl, err := p.and()
	if err != nil {
		return nil, 0, err
	}
	for p.peek().kind == tokOr {
		p.next()
		right, dr, err := p.and()
		if err != nil {
			return nil, 0, err
		}
		if left, dl, err = p.node(knowledge.Or(left, right), max(dl, dr)+1); err != nil {
			return nil, 0, err
		}
	}
	return left, dl, nil
}

// and := unary ('&' unary)*
func (p *parser) and() (knowledge.Formula, int, error) {
	left, dl, err := p.unary()
	if err != nil {
		return nil, 0, err
	}
	for p.peek().kind == tokAnd {
		p.next()
		right, dr, err := p.unary()
		if err != nil {
			return nil, 0, err
		}
		if left, dl, err = p.node(knowledge.And(left, right), max(dl, dr)+1); err != nil {
			return nil, 0, err
		}
	}
	return left, dl, nil
}

// unary := '!' unary | 'K' procset unary | 'S' procset unary | 'C' unary
// | TEMPORAL unary | '<>' unary | '[]' unary
// | ('E'|'A') '[' formula 'U' formula ']' | primary
func (p *parser) unary() (knowledge.Formula, int, error) {
	if err := p.enter(); err != nil {
		return nil, 0, err
	}
	defer func() { p.calls-- }()
	// Single-child temporal operators share one shape: keyword + unary.
	if ctor, ok := temporalUnary[p.peek().kind]; ok {
		p.next()
		f, d, err := p.unary()
		if err != nil {
			return nil, 0, err
		}
		return p.node(ctor(f), d+1)
	}
	switch p.peek().kind {
	case tokNot:
		p.next()
		f, d, err := p.unary()
		if err != nil {
			return nil, 0, err
		}
		return p.node(knowledge.Not(f), d+1)
	case tokKnows, tokSure:
		op := p.next()
		set, err := p.procSet()
		if err != nil {
			return nil, 0, err
		}
		f, d, err := p.unary()
		if err != nil {
			return nil, 0, err
		}
		if op.kind == tokKnows {
			return p.node(knowledge.Knows(set, f), d+1)
		}
		return p.node(knowledge.Sure(set, f), d+1)
	case tokCommon:
		p.next()
		f, d, err := p.unary()
		if err != nil {
			return nil, 0, err
		}
		return p.node(knowledge.Common(f), d+1)
	case tokExists, tokForall:
		return p.until()
	default:
		return p.primary()
	}
}

// temporalUnary maps the one-argument temporal keywords (and the
// diamond/box sugar) to their constructors.
var temporalUnary = map[tokenKind]func(knowledge.Formula) knowledge.Formula{
	tokEX:      knowledge.EX,
	tokAX:      knowledge.AX,
	tokEF:      knowledge.EF,
	tokAF:      knowledge.AF,
	tokEG:      knowledge.EG,
	tokAG:      knowledge.AG,
	tokEY:      knowledge.EY,
	tokAY:      knowledge.AY,
	tokOnce:    knowledge.Once,
	tokHist:    knowledge.Hist,
	tokDiamond: knowledge.EF,
	tokBox:     knowledge.AG,
}

// until := ('E'|'A') '[' formula 'U' formula ']'
func (p *parser) until() (knowledge.Formula, int, error) {
	quant := p.next()
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, 0, err
	}
	left, dl, err := p.formula()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(tokUntil); err != nil {
		return nil, 0, err
	}
	right, dr, err := p.formula()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, 0, err
	}
	if quant.kind == tokExists {
		return p.node(knowledge.EU(left, right), max(dl, dr)+1)
	}
	return p.node(knowledge.AU(left, right), max(dl, dr)+1)
}

// procSet := '{' name (',' name)* '}'
//
// Keywords cannot occur between the braces, so reserved words (E, A,
// U, Once, ...) are accepted as process names here — otherwise systems
// with such process names would be inexpressible, and Print output
// like `K{A} ...` could not be re-parsed.
func (p *parser) procSet() (trace.ProcSet, error) {
	if _, err := p.expect(tokLBrace); err != nil {
		return trace.ProcSet{}, err
	}
	var ids []trace.ProcID
	for {
		t := p.peek()
		if !wordToken(t) {
			return trace.ProcSet{}, p.errorf("expected process name, found %s", t.describe())
		}
		p.next()
		ids = append(ids, trace.ProcID(t.text))
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return trace.ProcSet{}, err
	}
	return trace.NewProcSet(ids...), nil
}

// primary := 'true' | 'false' | IDENT | STRING | '(' formula ')'
func (p *parser) primary() (knowledge.Formula, int, error) {
	t := p.peek()
	switch t.kind {
	case tokTrue:
		p.next()
		return knowledge.True, 0, nil
	case tokFalse:
		p.next()
		return knowledge.False, 0, nil
	case tokIdent, tokString:
		p.next()
		pred, ok := p.vocab[t.text]
		if !ok {
			return nil, 0, fmt.Errorf("logic: position %d: unknown atom %q (not in the vocabulary)", t.pos, t.text)
		}
		return knowledge.NewAtom(pred), 0, nil
	case tokLParen:
		p.next()
		f, d, err := p.formula()
		if err != nil {
			return nil, 0, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, 0, err
		}
		return f, d, nil
	default:
		return nil, 0, p.errorf("expected a formula, found %s", t.describe())
	}
}

// Print renders a formula back into parseable syntax (ASCII operators;
// atoms quoted whenever their names are not plain identifiers).
func Print(f knowledge.Formula) string {
	switch f := f.(type) {
	case knowledge.ConstF:
		if f.Value {
			return "true"
		}
		return "false"
	case knowledge.Atom:
		name := f.Pred.Name()
		if !plainIdent(name) {
			return `"` + name + `"`
		}
		return name
	case knowledge.NotF:
		return "!" + printUnary(f.F)
	case knowledge.AndF:
		return printUnary(f.L) + " & " + printUnary(f.R)
	case knowledge.OrF:
		return printUnary(f.L) + " | " + printUnary(f.R)
	case knowledge.ImpliesF:
		return printUnary(f.L) + " -> " + printUnary(f.R)
	case knowledge.KnowsF:
		return "K{" + f.P.Key() + "} " + printUnary(f.F)
	case knowledge.SureF:
		return "S{" + f.P.Key() + "} " + printUnary(f.F)
	case knowledge.CommonF:
		return "C " + printUnary(f.F)
	case knowledge.EXF:
		return "EX " + printUnary(f.F)
	case knowledge.AXF:
		return "AX " + printUnary(f.F)
	case knowledge.EFF:
		return "EF " + printUnary(f.F)
	case knowledge.AFF:
		return "AF " + printUnary(f.F)
	case knowledge.EGF:
		return "EG " + printUnary(f.F)
	case knowledge.AGF:
		return "AG " + printUnary(f.F)
	case knowledge.EUF:
		return "E[" + Print(f.L) + " U " + Print(f.R) + "]"
	case knowledge.AUF:
		return "A[" + Print(f.L) + " U " + Print(f.R) + "]"
	case knowledge.EYF:
		return "EY " + printUnary(f.F)
	case knowledge.AYF:
		return "AY " + printUnary(f.F)
	case knowledge.OnceF:
		return "Once " + printUnary(f.F)
	case knowledge.HistF:
		return "Hist " + printUnary(f.F)
	default:
		return f.String()
	}
}

func printUnary(f knowledge.Formula) string {
	switch f.(type) {
	case knowledge.AndF, knowledge.OrF, knowledge.ImpliesF:
		return "(" + Print(f) + ")"
	default:
		return Print(f)
	}
}

func plainIdent(s string) bool {
	if s == "" {
		return false
	}
	if _, reserved := reservedWords[s]; reserved {
		return false
	}
	for i, c := range s {
		if i == 0 && !isIdentStart(c) {
			return false
		}
		if i > 0 && !isIdentPart(c) {
			return false
		}
	}
	return true
}
