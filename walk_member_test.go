package hpl_test

import (
	"errors"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/protocols/diffusing"
	"hpl/internal/protocols/echo"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// TestWalksAreMembers holds every protocol's one definition to the
// walk/enumeration contract: over 20 seeds, each walked computation and
// each of its prefixes is a member of the universe EnumerateWith builds
// from the same protocol at a bound covering every walk — reliable and
// under crash-stop faults.
func TestWalksAreMembers(t *testing.T) {
	path := echo.Graph{
		Procs: []trace.ProcID{"a", "b", "c"},
		Neighbors: map[trace.ProcID][]trace.ProcID{
			"a": {"b"}, "b": {"a", "c"}, "c": {"b"},
		},
	}
	w := diffusing.Workload{Topo: diffusing.Chain(3), TotalMessages: 3, FanOut: 1}
	cases := []struct {
		name string
		p    universe.Protocol
		// max is the walk's MaxEvents; the token never rests, so its
		// walks end at the budget.
		max int
	}{
		{name: "tokenbus", p: tokenbus.MustNew("p", "q", "r"), max: 6},
		{name: "tracker", p: must(tracker.New("q", "p", 3))},
		{name: "echo/star", p: must(echo.New(echo.StarGraph(2), "hub"))},
		{name: "echo/path", p: must(echo.New(path, "a"))},
		{name: "ds", p: must(diffusing.NewDS(w))},
		{name: "credit", p: must(diffusing.NewCredit(w))},
		{name: "quiet", p: must(diffusing.NewQuiet(w, 2))},
	}
	crash := faults.Model{CrashAll: true}
	for _, tc := range cases {
		for _, wrapped := range []bool{false, true} {
			p, name := tc.p, tc.name
			if wrapped {
				p, name = faults.Wrap(p, crash), name+"/crash"
			}
			t.Run(name, func(t *testing.T) {
				var walks []*trace.Computation
				bound := 0
				for seed := int64(0); seed < 20; seed++ {
					c, err := universe.Walk(p, universe.WalkConfig{Seed: seed, MaxEvents: tc.max})
					if err != nil && !(tc.max > 0 && errors.Is(err, universe.ErrEventBudget)) {
						t.Fatal(err)
					}
					walks = append(walks, c)
					bound = max(bound, c.Len())
				}
				u, err := universe.EnumerateWith(p, universe.WithMaxEvents(bound), universe.WithCap(2_000_000))
				if err != nil {
					t.Fatal(err)
				}
				for seed, c := range walks {
					for n := 0; n <= c.Len(); n++ {
						if u.IndexOf(c.Prefix(n)) < 0 {
							t.Fatalf("seed %d: prefix of length %d of %v is not a member", seed, n, c)
						}
					}
				}
			})
		}
	}
}

func must[P universe.Protocol](p P, err error) universe.Protocol {
	if err != nil {
		panic(err)
	}
	return p
}
