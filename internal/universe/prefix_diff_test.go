package universe_test

import (
	"bytes"
	"fmt"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// requireReferenceIndex fails unless u's prefix index is identical to
// the reference build (see universe.PrefixIndexMismatch).
func requireReferenceIndex(t *testing.T, label string, u *universe.Universe) {
	t.Helper()
	if d := universe.PrefixIndexMismatch(u); d != "" {
		t.Fatalf("%s: prefix index differs from the reference: %s", label, d)
	}
}

// protocolSymmetries returns nil (the full universe) followed by the
// protocol's inferred symmetry group, when it has a non-trivial one.
func protocolSymmetries(p universe.Protocol) []*universe.Symmetry {
	syms := []*universe.Symmetry{nil}
	if s := universe.InferSymmetry(p); !s.Trivial() {
		syms = append(syms, s)
	}
	return syms
}

func symOptions(maxEvents, workers int, s *universe.Symmetry) []universe.Option {
	opts := []universe.Option{universe.WithMaxEvents(maxEvents), universe.WithParallelism(workers)}
	if s != nil {
		opts = append(opts, universe.WithSymmetry(s))
	}
	return opts
}

// TestPrefixIndexHandover differences the index the engine hands over
// with every enumerated universe against the reference build, on every
// protocol, full and quotient, at parallelism 1, 2 and 8.
func TestPrefixIndexHandover(t *testing.T) {
	cases := append(allProtocols(t), enumerable{"free3", universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 2,
	}), 5})
	for _, e := range cases {
		t.Run(e.name, func(t *testing.T) {
			for _, s := range protocolSymmetries(e.p) {
				for _, workers := range []int{1, 2, 8} {
					u, err := universe.EnumerateWith(e.p, symOptions(e.maxEvents, workers, s)...)
					if err != nil {
						t.Fatal(err)
					}
					requireReferenceIndex(t, fmt.Sprintf("workers=%d quotient=%v", workers, s != nil), u)
				}
			}
		})
	}
}

// TestPrefixIndexExtend checks that an extension continues its base's
// index exactly as the reference would build it over the extended
// universe, over an enumerated base and over a snapshot-loaded one
// (whose index is built lazily from decoded parents), and that the
// base's own index is left untouched.
func TestPrefixIndexExtend(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			for _, s := range protocolSymmetries(e.p) {
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("workers=%d quotient=%v", workers, s != nil)
					// Two events past the base, so fresh members have fresh
					// parents as well as base ones.
					enumerated, err := universe.EnumerateWith(e.p, symOptions(e.maxEvents-2, workers, s)...)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := universe.WriteSnapshot(&buf, enumerated, "d"); err != nil {
						t.Fatal(err)
					}
					loaded, _, err := universe.ReadSnapshot(&buf)
					if err != nil {
						t.Fatal(err)
					}
					loaded.BindProtocol(e.p)
					requireReferenceIndex(t, label+" snapshot load", loaded)
					for _, base := range []*universe.Universe{enumerated, loaded} {
						x, err := universe.Extend(base, universe.WithMaxEvents(e.maxEvents), universe.WithParallelism(workers))
						if err != nil {
							t.Fatal(err)
						}
						requireReferenceIndex(t, label+" extension", x)
						requireReferenceIndex(t, label+" extended base", base)
					}
				}
			}
		})
	}
}
