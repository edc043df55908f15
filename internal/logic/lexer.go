// Package logic provides a textual language for the epistemic-temporal
// formulas of package knowledge, with a lexer, a recursive-descent
// parser, and a printer. The grammar, in decreasing binding strength:
//
//	primary := 'true' | 'false' | IDENT | STRING | '(' formula ')'
//	unary   := '!' unary
//	         | 'K' '{' ident (',' ident)* '}' unary     -- P knows
//	         | 'S' '{' ident (',' ident)* '}' unary     -- P sure
//	         | 'C' unary                                -- common knowledge
//	         | ('EX'|'AX'|'EF'|'AF'|'EG'|'AG') unary    -- CTL step/path
//	         | ('EY'|'AY'|'Once'|'Hist') unary          -- past duals
//	         | '<>' unary                               -- sugar for EF
//	         | '[]' unary                               -- sugar for AG
//	         | ('E'|'A') '[' formula 'U' formula ']'    -- until
//	         | primary
//	and     := unary ('&' unary)*
//	or      := and ('|' and)*
//	formula := or ('->' formula)?                        -- right associative
//
// IDENT atoms ([A-Za-z_][A-Za-z0-9_@]*) and quoted STRING atoms (for
// names containing punctuation, e.g. "sent(p,m)") are resolved against a
// caller-supplied vocabulary of named predicates. K, S, C, E, A, U, the
// temporal operator names, true and false are reserved words; quote an
// atom to use a reserved name. Temporal operators are interpreted over
// the universe's prefix-extension transition graph — one step extends
// the computation by one event (see internal/temporal).
package logic

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokString
	tokTrue
	tokFalse
	tokKnows    // K
	tokSure     // S
	tokCommon   // C
	tokNot      // !
	tokAnd      // &
	tokOr       // |
	tokImplies  // ->
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokComma    // ,
	tokEX       // EX
	tokAX       // AX
	tokEF       // EF
	tokAF       // AF
	tokEG       // EG
	tokAG       // AG
	tokEY       // EY
	tokAY       // AY
	tokOnce     // Once
	tokHist     // Hist
	tokExists   // E (of E[f U g])
	tokForall   // A (of A[f U g])
	tokUntil    // U
	tokDiamond  // <>
	tokBox      // []
	tokLBracket // [
	tokRBracket // ]
)

// reservedWords maps keyword spellings to their token kinds; the lexer
// classifies identifiers through it and the printer quotes atom names
// that collide with it.
var reservedWords = map[string]tokenKind{
	"true": tokTrue, "false": tokFalse,
	"K": tokKnows, "S": tokSure, "C": tokCommon,
	"EX": tokEX, "AX": tokAX, "EF": tokEF, "AF": tokAF,
	"EG": tokEG, "AG": tokAG, "EY": tokEY, "AY": tokAY,
	"Once": tokOnce, "Hist": tokHist,
	"E": tokExists, "A": tokForall, "U": tokUntil,
}

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "quoted atom"
	case tokNot:
		return "!"
	case tokAnd:
		return "&"
	case tokOr:
		return "|"
	case tokImplies:
		return "->"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokComma:
		return ","
	case tokDiamond:
		return "<>"
	case tokBox:
		return "[]"
	case tokLBracket:
		return "["
	case tokRBracket:
		return "]"
	}
	for word, kind := range reservedWords {
		if kind == k {
			return word
		}
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// describe renders the token for error messages: the kind, plus the
// spelling when it adds information (identifiers and quoted atoms).
func (t token) describe() string {
	switch t.kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	case tokString:
		return fmt.Sprintf("quoted atom %q", t.text)
	default:
		return t.kind.String()
	}
}

// lexer hands out the input's tokens one at a time, as the parser asks
// for them, so input past the point where parsing fails — a formula
// nested past MaxNesting, say — is never tokenized. On an unexpected
// character it records a descriptive error with the byte position in
// err and reports end of input from then on.
type lexer struct {
	input string
	i     int
	err   error
}

// next returns the next token.
func (l *lexer) next() token {
	for l.i < len(l.input) && unicode.IsSpace(rune(l.input[l.i])) {
		l.i++
	}
	i, input := l.i, l.input
	if i == len(input) {
		return token{tokEOF, "", i}
	}
	tok := func(k tokenKind, text string) token {
		l.i += len(text)
		return token{k, text, i}
	}
	switch c := rune(input[i]); {
	case c == '!':
		return tok(tokNot, "!")
	case c == '&':
		return tok(tokAnd, "&")
	case c == '|':
		return tok(tokOr, "|")
	case c == '(':
		return tok(tokLParen, "(")
	case c == ')':
		return tok(tokRParen, ")")
	case c == '{':
		return tok(tokLBrace, "{")
	case c == '}':
		return tok(tokRBrace, "}")
	case c == ',':
		return tok(tokComma, ",")
	case c == '[':
		if strings.HasPrefix(input[i:], "[]") {
			return tok(tokBox, "[]")
		}
		return tok(tokLBracket, "[")
	case c == ']':
		return tok(tokRBracket, "]")
	case c == '<':
		if strings.HasPrefix(input[i:], "<>") {
			return tok(tokDiamond, "<>")
		}
		return l.fail("logic: position %d: '<' must begin '<>'", i)
	case c == '-':
		if strings.HasPrefix(input[i:], "->") {
			return tok(tokImplies, "->")
		}
		return l.fail("logic: position %d: '-' must begin '->'", i)
	case c == '"':
		end := strings.IndexByte(input[i+1:], '"')
		if end < 0 {
			return l.fail("logic: position %d: unterminated quoted atom", i)
		}
		l.i += end + 2
		return token{tokString, input[i+1 : i+1+end], i}
	case isIdentStart(c):
		j := i + 1
		for j < len(input) && isIdentPart(rune(input[j])) {
			j++
		}
		word := input[i:j]
		kind := tokIdent
		if k, ok := reservedWords[word]; ok {
			kind = k
		}
		return tok(kind, word)
	default:
		return l.fail("logic: position %d: unexpected character %q", i, c)
	}
}

// fail records the error and ends the input.
func (l *lexer) fail(format string, args ...any) token {
	l.err = fmt.Errorf(format, args...)
	l.i = len(l.input)
	return token{tokEOF, "", l.i}
}

// wordToken reports whether t lexed from an identifier-shaped spelling
// — a plain identifier or a reserved word. Contexts where keywords
// cannot appear (process names inside K{...}/S{...}) use it to accept
// reserved spellings as names.
func wordToken(t token) bool {
	if t.kind == tokIdent {
		return true
	}
	k, ok := reservedWords[t.text]
	return ok && k == t.kind
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '@'
}
