package universe

import (
	"sync"
	"testing"

	"hpl/internal/trace"
)

func transUniverse(t testing.TB, maxEvents int) *Universe {
	t.Helper()
	u, err := EnumerateWith(NewFree(FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), WithMaxEvents(maxEvents))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestTransitionsParentIsPrefix pins the reverse relation to the
// definition: the parent of a member is exactly its one-event-shorter
// prefix, and the edge label is the process of the extending event.
func TestTransitionsParentIsPrefix(t *testing.T) {
	u := transUniverse(t, 5)
	tr := u.Transitions()
	if tr.Len() != u.Len() {
		t.Fatalf("Len = %d, want %d", tr.Len(), u.Len())
	}
	roots := 0
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		p := tr.Parent(i)
		if c.Len() == 0 {
			if p != -1 {
				t.Fatalf("null computation has parent %d", p)
			}
			roots++
			continue
		}
		want := u.IndexOf(c.Prefix(c.Len() - 1))
		if want < 0 {
			t.Fatalf("universe not prefix closed at member %d", i)
		}
		if p != want {
			t.Fatalf("Parent(%d) = %d, want %d", i, p, want)
		}
		lab, ok := tr.Label(i)
		if !ok || lab != c.At(c.Len()-1).Proc {
			t.Fatalf("Label(%d) = %q,%v, want %q", i, lab, ok, c.At(c.Len()-1).Proc)
		}
	}
	if roots != 1 {
		t.Fatalf("prefix-closed universe must have exactly one root, got %d", roots)
	}
}

// TestTransitionsSuccInvertsParent pins the child ranges to the parent
// array: j ∈ Succ(i) exactly when Parent(j) == i, ascending, and each
// edge is labelled by the process of the extending event.
func TestTransitionsSuccInvertsParent(t *testing.T) {
	u := transUniverse(t, 5)
	tr := u.Transitions()
	edges := 0
	for i := 0; i < u.Len(); i++ {
		prev := int32(-1)
		for _, j := range tr.Succ(i) {
			if j <= prev {
				t.Fatalf("Succ(%d) not ascending", i)
			}
			prev = j
			if tr.Parent(int(j)) != i {
				t.Fatalf("edge %d→%d not mirrored by Parent", i, j)
			}
			if lab, ok := tr.Label(int(j)); !ok || lab != u.At(int(j)).At(u.At(int(j)).Len()-1).Proc {
				t.Fatalf("edge %d→%d labelled %q,%v, not by its event's process", i, j, lab, ok)
			}
			edges++
		}
		if tr.HasSucc(i) != (len(tr.Succ(i)) > 0) {
			t.Fatalf("HasSucc(%d) inconsistent", i)
		}
	}
	if edges != tr.NumEdges() {
		t.Fatalf("NumEdges = %d, counted %d", tr.NumEdges(), edges)
	}
	if edges != u.Len()-1 {
		t.Fatalf("a prefix-closed universe is a tree: want %d edges, got %d", u.Len()-1, edges)
	}
}

// TestTransitionsOrderTopological: every member appears after its
// parent in Order, so single-sweep fixpoints are exact.
func TestTransitionsOrderTopological(t *testing.T) {
	u := transUniverse(t, 5)
	tr := u.Transitions()
	pos := make([]int, u.Len())
	for k, i := range tr.Order() {
		pos[i] = k
	}
	for j := 0; j < u.Len(); j++ {
		if p := tr.Parent(j); p >= 0 && pos[p] >= pos[j] {
			t.Fatalf("parent %d ordered after child %d", p, j)
		}
	}
}

// TestTransitionsHandBuiltUniverse: on a non-prefix-closed universe the
// graph keeps only edges between members and leaves orphans rootless.
func TestTransitionsHandBuiltUniverse(t *testing.T) {
	x := trace.NewBuilder().Internal("p", "a").MustBuild()
	xy := trace.NewBuilder().Internal("p", "a").Internal("q", "b").MustBuild()
	lone := trace.NewBuilder().Internal("q", "c").Internal("q", "d").MustBuild()
	// Deliberately unsorted member order and no null computation.
	u := New([]*trace.Computation{xy, x, lone}, trace.NewProcSet("p", "q"))
	tr := u.Transitions()
	if got := tr.Parent(0); got != 1 {
		t.Fatalf("Parent(xy) = %d, want x at 1", got)
	}
	if lab, ok := tr.Label(0); !ok || lab != "q" {
		t.Fatalf("Label(xy) = %q,%v", lab, ok)
	}
	if tr.Parent(1) != -1 || tr.Parent(2) != -1 {
		t.Fatalf("x and lone must be roots: %d %d", tr.Parent(1), tr.Parent(2))
	}
	// Order must still be topological despite the unsorted members.
	pos := make(map[int32]int)
	for k, i := range tr.Order() {
		pos[i] = k
	}
	if pos[1] >= pos[0] {
		t.Fatalf("order not topological on hand-built universe")
	}
}

// TestTransitionsSharedBuild: concurrent callers get one graph.
func TestTransitionsSharedBuild(t *testing.T) {
	u := transUniverse(t, 4)
	const goroutines = 8
	got := make([]*Transitions, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = u.Transitions()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different graph", g)
		}
	}
}

// TestTransitionsDeterministic: a fresh build is identical to the
// cached one (NewTransitions is what the cache runs).
func TestTransitionsDeterministic(t *testing.T) {
	u := transUniverse(t, 5)
	a, b := u.Transitions(), NewTransitions(u)
	for i := 0; i < u.Len(); i++ {
		if a.Parent(i) != b.Parent(i) {
			t.Fatalf("Parent(%d) differs across builds", i)
		}
		la, oka := a.Label(i)
		lb, okb := b.Label(i)
		if la != lb || oka != okb {
			t.Fatalf("Label(%d) differs across builds", i)
		}
		sa, sb := a.Succ(i), b.Succ(i)
		if len(sa) != len(sb) {
			t.Fatalf("Succ(%d) length differs", i)
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("Succ(%d)[%d] differs", i, k)
			}
		}
	}
}
