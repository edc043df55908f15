package universe_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/diffusing"
	"hpl/internal/protocols/echo"
	"hpl/internal/protocols/heartbeat"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// commuteProtocols is every protocol of internal/protocols, plus free
// systems of two and three processes.
func commuteProtocols(t *testing.T) []struct {
	name string
	p    universe.Protocol
} {
	must := func(p universe.Protocol, err error) universe.Protocol {
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	w := diffusing.Workload{Topo: diffusing.Chain(3), TotalMessages: 3, FanOut: 1}
	return []struct {
		name string
		p    universe.Protocol
	}{
		{"free2", universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 2})},
		{"free3", universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1, MaxInternal: 1})},
		{"tokenbus", tokenbus.MustNew("p", "q", "r")},
		{"commit", commit.MustNew("c", "p1", "p2")},
		{"heartbeat", must(heartbeat.New("w", "m", 2))},
		{"tracker", must(tracker.New("o", "t", 2))},
		{"ackchain", ackchain.MustNew("p", "q", 3)},
		{"echo", must(echo.New(echo.StarGraph(2), "hub"))},
		{"ds", must(diffusing.NewDS(w))},
		{"credit", must(diffusing.NewCredit(w))},
		{"quiet", must(diffusing.NewQuiet(w, 2))},
	}
}

// commuteFaults are the fault models the gate wraps each protocol in.
var commuteFaults = []faults.Model{
	{},
	{CrashAll: true},
	{Drops: 1},
	{Dups: 1},
}

// TestCommutationQuotientGate holds the commutation quotient to the full
// universe for every protocol, reliable and under each fault model, at
// event bounds 4 to 7 as far as the full universe stays small: one
// member per [D]-class, each weighted by its class's size (its number
// of linearizations), each the greedy linearization of its class, and
// successor lists that are exactly the class-level extension relation
// of the full universe. Parallel builds must be byte-identical.
func TestCommutationQuotientGate(t *testing.T) {
	for _, pc := range commuteProtocols(t) {
		for _, m := range commuteFaults {
			p := pc.p
			if !m.IsReliable() {
				p = faults.Wrap(p, m)
			}
			t.Run(pc.name+"/"+m.String(), func(t *testing.T) {
				for n := 4; n <= 7; n++ {
					full, err := universe.EnumerateWith(p, universe.WithMaxEvents(n), universe.WithCap(250_000))
					if errors.Is(err, universe.ErrTooLarge) {
						if n == 4 {
							t.Fatalf("no bound fits: %v", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					quo, err := universe.EnumerateWith(p, universe.WithMaxEvents(n), universe.WithCommutation())
					if err != nil {
						t.Fatal(err)
					}
					requireCommutationQuotient(t, fmt.Sprintf("bound %d", n), full, quo)
					for _, par := range []int{2, 8} {
						q, err := universe.EnumerateWith(p, universe.WithMaxEvents(n), universe.WithCommutation(), universe.WithParallelism(par))
						if err != nil {
							t.Fatal(err)
						}
						requireSameQuotient(t, fmt.Sprintf("bound %d, parallelism %d", n, par), quo, q)
					}
				}
			})
		}
	}
}

// requireCommutationQuotient checks quo against full, the universe it
// is the commutation quotient of.
func requireCommutationQuotient(t *testing.T, label string, full, quo *universe.Universe) {
	t.Helper()
	classes := full.Partition(full.All())
	if !quo.Commuting() || !quo.IsQuotient() || quo.Symmetry() != nil {
		t.Fatalf("%s: Commuting %v, IsQuotient %v", label, quo.Commuting(), quo.IsQuotient())
	}
	if quo.Len() != classes.NumClasses() || quo.FullSize() != int64(full.Len()) {
		t.Fatalf("%s: %d members standing for %d computations, want %d classes of %d", label, quo.Len(), quo.FullSize(), classes.NumClasses(), full.Len())
	}
	// rep[c] is the member standing for [D]-class c.
	rep := make([]int32, classes.NumClasses())
	for i := range rep {
		rep[i] = -1
	}
	for i := range quo.Len() {
		x := quo.At(i)
		j := full.IndexOf(x)
		if j < 0 {
			t.Fatalf("%s: member %v is not a computation of the system", label, x)
		}
		c := classes.ClassOf(j)
		if rep[c] >= 0 {
			t.Fatalf("%s: members %d and %d share a class", label, rep[c], i)
		}
		rep[c] = int32(i)
		if w := quo.OrbitSize(i); w != int64(len(classes.MembersOf(c))) {
			t.Fatalf("%s: member %d weighs %d, its class has %d linearizations", label, i, w, len(classes.MembersOf(c)))
		}
		if g := greedyLinearization(x, quo.Protocol().Procs()); g.Key() != x.Key() {
			t.Fatalf("%s: member %v is not greedy (%v is)", label, x, g)
		}
	}
	ft, qt := full.Transitions(), quo.Transitions()
	for i := range quo.Len() {
		var want []int32
		for _, j := range ft.Succ(full.IndexOf(quo.At(i))) {
			want = append(want, rep[classes.ClassOf(int(j))])
		}
		got := slices.Clone(qt.Succ(i))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("%s: member %d steps to %v, want %v", label, i, got, want)
		}
		if qt.HasSucc(i) != (len(got) > 0) {
			t.Fatalf("%s: HasSucc(%d) disagrees with Succ", label, i)
		}
	}
}

// greedyLinearization returns the greedy linearization of x's partial
// order under the process order procs (the protocol's Procs): at every
// step, the next event of the lowest-indexed process whose next event
// has all its predecessors placed.
func greedyLinearization(x *trace.Computation, procs []trace.ProcID) *trace.Computation {
	evs := x.Events()
	placed := make([]bool, len(evs))
	sent := make(map[trace.MsgID]bool)
	out := trace.Empty()
	for range evs {
		next := -1
		for _, p := range procs {
			for k, e := range evs {
				if placed[k] || e.Proc != p {
					continue
				}
				// k is p's next unplaced event.
				if e.Kind != trace.KindReceive || sent[e.Msg] {
					next = k
				}
				break
			}
			if next >= 0 {
				break
			}
		}
		placed[next] = true
		if evs[next].Kind == trace.KindSend {
			sent[evs[next].Msg] = true
		}
		out = trace.Extend(out, evs[next])
	}
	return out
}

// requireSameQuotient checks that two builds of one quotient agree
// member for member, weight for weight and edge for edge.
func requireSameQuotient(t *testing.T, label string, a, b *universe.Universe) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d members, want %d", label, b.Len(), a.Len())
	}
	ta, tb := a.Transitions(), b.Transitions()
	for i := range a.Len() {
		if a.At(i).Key() != b.At(i).Key() || a.OrbitSize(i) != b.OrbitSize(i) || !slices.Equal(ta.Succ(i), tb.Succ(i)) {
			t.Fatalf("%s: member %d differs", label, i)
		}
	}
}

// TestCommutationQuotientReferenceCounts pins the class counts of the
// three-process reference system (two sends each) at bounds 4 to 7.
func TestCommutationQuotientReferenceCounts(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
	for n, want := range map[int]int{4: 582, 5: 2016, 6: 6408, 7: 18624} {
		q, err := universe.EnumerateWith(p, universe.WithMaxEvents(n), universe.WithCommutation())
		if err != nil {
			t.Fatal(err)
		}
		if q.Len() != want {
			t.Errorf("bound %d: %d classes, want %d", n, q.Len(), want)
		}
	}
}

// TestCommutationQuotientRefusals checks each operation the quotient
// does not support fails with ErrCommutationQuotient.
func TestCommutationQuotientRefusals(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	q, err := universe.EnumerateWith(p, universe.WithMaxEvents(3), universe.WithCommutation())
	if err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteSnapshot(&bytes.Buffer{}, q, "d"); !errors.Is(err, universe.ErrCommutationQuotient) {
		t.Errorf("WriteSnapshot: %v", err)
	}
	if _, err := universe.Extend(q, universe.WithMaxEvents(4)); !errors.Is(err, universe.ErrCommutationQuotient) || !errors.Is(err, universe.ErrCannotExtend) {
		t.Errorf("Extend of a quotient: %v", err)
	}
	full := universe.MustEnumerateWith(p, universe.WithMaxEvents(3))
	if _, err := universe.Extend(full, universe.WithMaxEvents(4), universe.WithCommutation()); !errors.Is(err, universe.ErrCommutationQuotient) {
		t.Errorf("Extend into a quotient: %v", err)
	}
	g, err := universe.FullSymmetry("p", "q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := universe.EnumerateWith(p, universe.WithCommutation(), universe.WithSymmetry(g)); !errors.Is(err, universe.ErrCommutationQuotient) {
		t.Errorf("WithSymmetry and WithCommutation: %v", err)
	}
}
