package experiments

import (
	"strings"
	"testing"

	"hpl/internal/knowledge"
)

func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow in -short mode")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 22 {
		t.Fatalf("tables = %d, want 22", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" {
			t.Errorf("table missing metadata: %+v", tb)
		}
		if seen[tb.ID] {
			t.Errorf("duplicate experiment id %s", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
	}
	for _, id := range []string{
		"FIG-3-1", "FIG-3-2", "FIG-3-3", "EXP-P", "EXP-T1", "EXP-T3",
		"EXP-K", "EXP-LP", "EXP-CK", "EXP-T4", "EXP-T5", "EXP-T6",
		"EXP-TOK", "EXP-A1", "EXP-A2", "EXP-A3", "EXP-EXT", "EXP-CMT", "EXP-E", "EXP-GEN",
		"EXP-LB", "EXP-FLT",
	} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestRender(t *testing.T) {
	tb := Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := tb.Render()
	for _, frag := range []string{"== X — demo ==", "a    bb", "333", "note: hello"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestFig31Standalone(t *testing.T) {
	tb, err := Fig31()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("figure 3-1 edges = %d, want 5", len(tb.Rows))
	}
}

func TestFig32AndFig33Standalone(t *testing.T) {
	if _, err := Fig32(); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig33(); err != nil {
		t.Fatal(err)
	}
}

func TestTerminationBoundShape(t *testing.T) {
	tb, err := TerminationBound()
	if err != nil {
		t.Fatal(err)
	}
	// Every DS row must have ratio exactly 1.000.
	for _, row := range tb.Rows {
		if row[3] != "1.000" {
			t.Errorf("DS ratio %q in row %v", row[3], row)
		}
	}
}

// TestCommonKnowledgeOneComponent checks Lemma 3's corollary with
// EvalNaive's fixpoint, which shares nothing with the component labels
// the Evaluator answers C from (so CheckCommonKnowledgeConstant holds
// there by construction). It runs on EXP-CK's universe (free p,q, one
// send each, five events) and on the same system with two sends each.
// F = "some event happened" fails only at the null computation, and
// C F fails at x exactly when x's component contains a member where F
// fails; so C F false everywhere says every member shares the null
// computation's component.
func TestCommonKnowledgeOneComponent(t *testing.T) {
	for _, bound := range [][2]int{{1, 5}, {2, 5}} {
		u, err := freeUniverse(bound[0], bound[1])
		if err != nil {
			t.Fatal(err)
		}
		happened := knowledge.NewAtom(knowledge.EventCountAtLeast(u.All(), 1))
		ck := knowledge.Common(happened)
		for i := range u.Len() {
			if knowledge.EvalNaive(u, happened, i) == (u.At(i).Len() == 0) {
				t.Fatalf("%v member %d: F must fail exactly at the null computation", bound, i)
			}
			if knowledge.EvalNaive(u, ck, i) {
				t.Fatalf("%v: member %d is not in the null computation's component", bound, i)
			}
		}
		if _, n := u.Components(); n != 1 {
			t.Fatalf("%v: the fixpoint finds one component, the labels %d", bound, n)
		}
	}
}
