package logic

import (
	"strings"
	"testing"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

func vocab() Vocabulary {
	return NewVocabulary(
		knowledge.SentTag("p", "m"),
		knowledge.ReceivedTag("q", "m"),
		knowledge.NewCount("b", func(trace.Event) int32 { return 1 }, func(n int32) bool { return n > 0 }),
	)
}

func TestParseAtoms(t *testing.T) {
	v := vocab()
	f, err := Parse("b", v)
	if err != nil {
		t.Fatal(err)
	}
	if f.Key() != "a(b)" {
		t.Fatalf("Key = %q", f.Key())
	}
	f, err = Parse(`"sent(p,m)"`, v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Key(), "sent(p,m)") {
		t.Fatalf("Key = %q", f.Key())
	}
}

func TestParseConstants(t *testing.T) {
	v := vocab()
	f := MustParse("true", v)
	if f.Key() != "true" {
		t.Fatalf("Key = %q", f.Key())
	}
	if MustParse("false", v).Key() != "false" {
		t.Fatalf("false parse failed")
	}
}

func TestParseOperatorsAndPrecedence(t *testing.T) {
	v := vocab()
	cases := []struct {
		in   string
		want knowledge.Formula
	}{
		{"!b", knowledge.Not(atom(v, "b"))},
		{"b & true", knowledge.And(atom(v, "b"), knowledge.True)},
		{"b | false", knowledge.Or(atom(v, "b"), knowledge.False)},
		{"b -> true", knowledge.Implies(atom(v, "b"), knowledge.True)},
		// & binds tighter than |, which binds tighter than ->.
		{"b & true | false", knowledge.Or(knowledge.And(atom(v, "b"), knowledge.True), knowledge.False)},
		{"b | true -> false", knowledge.Implies(knowledge.Or(atom(v, "b"), knowledge.True), knowledge.False)},
		// -> is right associative.
		{"b -> b -> b", knowledge.Implies(atom(v, "b"), knowledge.Implies(atom(v, "b"), atom(v, "b")))},
		// ! binds tightest.
		{"!b & b", knowledge.And(knowledge.Not(atom(v, "b")), atom(v, "b"))},
		{"(b | b) & b", knowledge.And(knowledge.Or(atom(v, "b"), atom(v, "b")), atom(v, "b"))},
	}
	for _, c := range cases {
		got, err := Parse(c.in, v)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("%q parsed to %s, want %s", c.in, got.Key(), c.want.Key())
		}
	}
}

func atom(v Vocabulary, name string) knowledge.Formula {
	return knowledge.NewAtom(v[name])
}

func TestParseEpistemicOperators(t *testing.T) {
	v := vocab()
	p := trace.NewProcSet("p")
	pq := trace.NewProcSet("p", "q")
	cases := []struct {
		in   string
		want knowledge.Formula
	}{
		{"K{p} b", knowledge.Knows(p, atom(v, "b"))},
		{"K{p,q} b", knowledge.Knows(pq, atom(v, "b"))},
		{"S{p} b", knowledge.Sure(p, atom(v, "b"))},
		{"C b", knowledge.Common(atom(v, "b"))},
		{"K{p} K{q} b", knowledge.Knows(p, knowledge.Knows(trace.NewProcSet("q"), atom(v, "b")))},
		{"K{p} !K{q} b", knowledge.Knows(p, knowledge.Not(knowledge.Knows(trace.NewProcSet("q"), atom(v, "b"))))},
		{"!K{p} b & b", knowledge.And(knowledge.Not(knowledge.Knows(p, atom(v, "b"))), atom(v, "b"))},
	}
	for _, c := range cases {
		got, err := Parse(c.in, v)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("%q parsed to %s, want %s", c.in, got.Key(), c.want.Key())
		}
	}
}

// Reserved words are legal process names inside K{...}/S{...}: the
// braces leave no room for keywords, and systems are free to name a
// process A, E, U, or Once. Regression test for the temporal keywords
// shadowing such names.
func TestParseReservedProcessNames(t *testing.T) {
	v := vocab()
	cases := []struct {
		in   string
		want knowledge.Formula
	}{
		{"K{A} b", knowledge.Knows(trace.Singleton("A"), atom(v, "b"))},
		{"K{E,U} b", knowledge.Knows(trace.NewProcSet("E", "U"), atom(v, "b"))},
		{"S{Once} b", knowledge.Sure(trace.Singleton("Once"), atom(v, "b"))},
		{"K{K} b", knowledge.Knows(trace.Singleton("K"), atom(v, "b"))},
		{"EX K{AG} b", knowledge.EX(knowledge.Knows(trace.Singleton("AG"), atom(v, "b")))},
	}
	for _, c := range cases {
		got, err := Parse(c.in, v)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("%q parsed to %s, want %s", c.in, got.Key(), c.want.Key())
		}
		printed := Print(got)
		re, err := Parse(printed, v)
		if err != nil {
			t.Errorf("%q printed as %q which fails to parse: %v", c.in, printed, err)
			continue
		}
		if re.Key() != got.Key() {
			t.Errorf("%q: round trip changed %s to %s", c.in, got.Key(), re.Key())
		}
	}
}

func TestParseTemporalOperators(t *testing.T) {
	v := vocab()
	b := atom(v, "b")
	cases := []struct {
		in   string
		want knowledge.Formula
	}{
		{"EX b", knowledge.EX(b)},
		{"AX b", knowledge.AX(b)},
		{"EF b", knowledge.EF(b)},
		{"AF b", knowledge.AF(b)},
		{"EG b", knowledge.EG(b)},
		{"AG b", knowledge.AG(b)},
		{"EY b", knowledge.EY(b)},
		{"AY b", knowledge.AY(b)},
		{"Once b", knowledge.Once(b)},
		{"Hist b", knowledge.Hist(b)},
		// Diamond and box sugar.
		{"<> b", knowledge.EF(b)},
		{"[] b", knowledge.AG(b)},
		// Until, both quantifiers, nested formulas inside the brackets.
		{"E[b U b]", knowledge.EU(b, b)},
		{"A[ b U !b ]", knowledge.AU(b, knowledge.Not(b))},
		{"E[b & b U b -> b]", knowledge.EU(knowledge.And(b, b), knowledge.Implies(b, b))},
		// Temporal binds like the other unaries: tighter than &.
		{"EF b & b", knowledge.And(knowledge.EF(b), b)},
		{"!EF b", knowledge.Not(knowledge.EF(b))},
		// Epistemic-temporal nesting, the tentpole composition.
		{`AG (K{q} "sent(p,m)" -> Once "received(q,m)")`,
			knowledge.AG(knowledge.Implies(
				knowledge.Knows(trace.NewProcSet("q"), atom(v, "sent(p,m)")),
				knowledge.Once(atom(v, "received(q,m)"))))},
		{"K{p} EF K{q} b", knowledge.Knows(trace.NewProcSet("p"),
			knowledge.EF(knowledge.Knows(trace.NewProcSet("q"), atom(v, "b"))))},
	}
	for _, c := range cases {
		got, err := Parse(c.in, v)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("%q parsed to %s, want %s", c.in, got.Key(), c.want.Key())
		}
	}
}

func TestParseErrors(t *testing.T) {
	v := vocab()
	cases := []string{
		"",
		"b b",
		"b &",
		"& b",
		"K b",
		"K{} b",
		"K{p q} b",
		"K{p,} b",
		"(b",
		"b)",
		"unknownatom",
		`"unterminated`,
		"b - b",
		"b @ b",
		"!",
		"EX",         // operator with no operand
		"E[b U b",    // unclosed until
		"E[b b]",     // missing U
		"E b",        // E without brackets
		"A[U b]",     // missing left operand
		"b U b",      // bare U outside brackets
		"< b",        // '<' must begin '<>'
		"[ b ]",      // '[' only valid after E/A
		"Once",       // past operator with no operand
		"E[b U b] ]", // trailing bracket
	}
	for _, in := range cases {
		if _, err := Parse(in, v); err == nil {
			t.Errorf("%q: expected parse error", in)
		}
	}
}

func TestParseErrorsMentionPosition(t *testing.T) {
	v := vocab()
	cases := []struct {
		in string
		// want substrings of the error: the byte position of the
		// offending token and a mention of what was found there.
		want []string
	}{
		{"b & ???", []string{"position 4", "?"}},
		{"b & & b", []string{"position 4", "&"}},
		{"K{p} nosuch", []string{"position 5", `"nosuch"`}},
		{"E[b U b", []string{"position 7", "]"}},
		{"K{,p} b", []string{"position 2", "process name"}},
		{`b "extra"`, []string{"position 2", `"extra"`}},
	}
	for _, c := range cases {
		_, err := Parse(c.in, v)
		if err == nil {
			t.Errorf("%q: expected parse error", c.in)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%q: error %q does not mention %q", c.in, err, w)
			}
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	v := vocab()
	inputs := []string{
		"b",
		`"sent(p,m)"`,
		"!b",
		"b & true",
		"b | false -> b",
		"K{p} K{q} b",
		"S{p,q} (b & b)",
		"C b",
		"K{p} !K{q} \"received(q,m)\"",
		"b -> b -> b",
	}
	for _, in := range inputs {
		f := MustParse(in, v)
		printed := Print(f)
		re, err := Parse(printed, v)
		if err != nil {
			t.Errorf("%q printed as %q which fails to parse: %v", in, printed, err)
			continue
		}
		if re.Key() != f.Key() {
			t.Errorf("%q: round trip changed %s to %s", in, f.Key(), re.Key())
		}
	}
}

func TestParsedFormulaEvaluates(t *testing.T) {
	// End-to-end: parse a formula and evaluate it on a universe.
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	v := vocab()
	e := knowledge.NewEvaluator(u)
	f := MustParse(`K{q} "sent(p,m)"`, v)
	y := trace.NewBuilder().Send("p", "q", "m").Receive("q", "p").MustBuild()
	if !e.MustHolds(f, y) {
		t.Fatalf("parsed formula must hold after receive")
	}
	x := trace.NewBuilder().Send("p", "q", "m").MustBuild()
	if e.MustHolds(f, x) {
		t.Fatalf("parsed formula must not hold before receive")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParse("!!!...", vocab())
}

func TestPlainIdent(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"abc", true}, {"a_b@c", true}, {"", false}, {"true", false},
		{"K", false}, {"9x", false}, {"a b", false}, {"sent(p,m)", false},
	}
	for _, c := range cases {
		if got := plainIdent(c.in); got != c.want {
			t.Errorf("plainIdent(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
