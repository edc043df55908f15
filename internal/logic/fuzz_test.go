package logic

import (
	"errors"
	"strings"
	"testing"
)

// nested wraps atom in n levels, opening each with open and closing it
// with close.
func nested(n int, open, atom, close string) string {
	return strings.Repeat(open, n) + atom + strings.Repeat(close, n)
}

// FuzzParse hammers the parser with mutated formula text: whatever the
// input, Parse must return a formula or an error — never panic or
// exhaust the stack — and on every formula it accepts, printing and
// reparsing must give back the same formula. The corpus is seeded with
// every operator form and with nesting on both sides of MaxNesting.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`"sent(p,m)" -> "received(q,m)"`,
		`K{p} K{q} b & !S{p,q} C b | false`,
		`E[b U A[true U "sent(p,m)"]] -> AG EF AX EX AF EG b`,
		`EY AY Once Hist <> [] plain_name | "with@at"`,
		`K{A} K{E,Once} b`,
		`((b)`,
		`K{q "oops`,
		nested(MaxNesting, "!", "b", ""),
		nested(MaxNesting+1, "(", "b", ")"),
		nested(2*MaxNesting+1, "(", "b", ")"),
		strings.Repeat("b -> ", MaxNesting) + "b",
	} {
		f.Add(s)
	}
	v, _ := fuzzVocab()
	v["b"] = v["plain_name"]
	f.Fuzz(func(t *testing.T, s string) {
		f1, err := Parse(s, v)
		if err != nil {
			return
		}
		printed := Print(f1)
		f2, err := Parse(printed, v)
		if err != nil {
			t.Fatalf("Parse(%q) printed as %q, which fails to parse: %v", s, printed, err)
		}
		if f1.Key() != f2.Key() {
			t.Fatalf("Parse(%q) = %s, but its print %q reparses to %s", s, f1.Key(), printed, f2.Key())
		}
	})
}

// TestParseNestingBound pins MaxNesting: formulas whose operators nest
// exactly MaxNesting deep parse and survive the print/parse round trip,
// in every shape the parser nests — prefix operators, left-nested
// chains, right-nested implications, until brackets — and one level
// more fails with ErrNesting, as do parentheses too deep to recurse
// into, however deep.
func TestParseNestingBound(t *testing.T) {
	v := vocab()
	shapes := map[string]func(n int) string{
		"negation":    func(n int) string { return nested(n, "!", "b", "") },
		"knowledge":   func(n int) string { return nested(n, "K{p} ", "b", "") },
		"conjunction": func(n int) string { return "b" + strings.Repeat(" & b", n) },
		"implication": func(n int) string { return strings.Repeat("b -> ", n) + "b" },
		"until":       func(n int) string { return nested(n, "E[b U ", "b", "]") },
	}
	for name, shape := range shapes {
		f, err := Parse(shape(MaxNesting), v)
		if err != nil {
			t.Errorf("%s, %d deep: %v", name, MaxNesting, err)
			continue
		}
		if back, err := Parse(Print(f), v); err != nil || back.Key() != f.Key() {
			t.Errorf("%s, %d deep: round trip: %v", name, MaxNesting, err)
		}
		if _, err := Parse(shape(MaxNesting+1), v); !errors.Is(err, ErrNesting) {
			t.Errorf("%s, %d deep: err = %v, want ErrNesting", name, MaxNesting+1, err)
		}
	}
	for _, n := range []int{2*MaxNesting + 1, 900_000} {
		if _, err := Parse(nested(n, "(", "b", ")"), v); !errors.Is(err, ErrNesting) {
			t.Errorf("%d parentheses: err = %v, want ErrNesting", n, err)
		}
	}
}

// TestParseReadsLazily bounds what rejecting deep nesting costs: the
// parser pulls tokens as it needs them, so a 1 MiB body of negations
// fails at the recursion bound having tokenized only its first few
// thousand bytes, and allocates far less than the body's size.
func TestParseReadsLazily(t *testing.T) {
	body := strings.Repeat("!", 1<<20)
	v := vocab()
	if _, err := Parse(body, v); !errors.Is(err, ErrNesting) {
		t.Fatalf("err = %v, want ErrNesting", err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			Parse(body, v)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("Parse of a 1 MiB body allocates %d bytes, want under 1 MiB", got)
	}
}
