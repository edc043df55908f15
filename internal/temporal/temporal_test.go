package temporal_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/temporal"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

func universes(t testing.TB) map[string]*universe.Universe {
	t.Helper()
	out := make(map[string]*universe.Universe)
	add := func(name string, p universe.Protocol, maxEvents int, opts ...universe.Option) {
		u, err := universe.EnumerateWith(p, append(opts, universe.WithMaxEvents(maxEvents))...)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = u
	}
	add("free", universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), 4)
	add("tokenbus", tokenbus.MustNew("p", "q", "r"), 5)
	add("ackchain", ackchain.MustNew("p", "q", 2), 4)
	free3 := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 1,
	})
	add("free3", free3, 5)
	// A commutation quotient: the future kernels read its successor
	// lists, a DAG, instead of child ranges.
	add("free3-commutation", free3, 5, universe.WithCommutation())
	out["handbuilt"] = handBuilt(t)
	return out
}

// handBuilt returns a New universe with what enumeration never
// produces: members in shuffled order, so Order is not the identity;
// no null computation and several roots (members whose prefix is not a
// member), some of them chains of more than one event; a member with
// more than 64 children, so a child range spans several words; and
// leaves that sit below the inner bound among members with children.
func handBuilt(t testing.TB) *universe.Universe {
	t.Helper()
	build := func(steps ...string) *trace.Computation {
		b := trace.NewBuilder()
		for _, s := range steps {
			b.Internal(trace.ProcID(s[:1]), s[2:])
		}
		return b.MustBuild()
	}
	ext := func(base []string, more ...string) []string { return append(slices.Clone(base), more...) }
	root := []string{"p:a"}
	cs := []*trace.Computation{build(root...)}
	for k := range 70 {
		kid := ext(root, fmt.Sprintf("q:c%d", k))
		cs = append(cs, build(kid...))
		if k%3 == 0 {
			cs = append(cs, build(ext(kid, "r:d")...))
		}
		if k%6 == 0 {
			cs = append(cs, build(ext(kid, "r:d", "p:e")...), build(ext(kid, "r:d", "q:f")...))
		}
	}
	cs = append(cs,
		build("q:x", "q:y"), build("q:x", "q:y", "p:z"), build("q:x", "q:y", "p:z", "r:w"),
		build("r:v"),
		build("p:a", "q:c1", "r:d", "p:e", "q:g"), // its prefix is not a member
	)
	rand.New(rand.NewSource(3)).Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	u := universe.New(cs, trace.NewProcSet("p", "q", "r"))

	tr := u.Transitions()
	if !tr.Permuted() {
		t.Fatal("hand-built universe: member order is the level order")
	}
	roots, wide := 0, false
	for i := range u.Len() {
		if tr.Parent(i) < 0 {
			roots++
		}
		wide = wide || len(tr.Succ(i)) > 64
	}
	quiescent := 0
	for _, r := range tr.ChildRanges() {
		if r[0] == r[1] {
			quiescent++
		}
	}
	if roots < 4 || !wide || quiescent == 0 {
		t.Fatalf("hand-built universe: %d roots, wide range %v, %d leaves below the inner bound", roots, wide, quiescent)
	}
	return u
}

func randVec(r *rand.Rand, n int) []uint64 {
	v := make([]uint64, (n+63)/64)
	for w := range v {
		v[w] = r.Uint64()
	}
	if rem := uint(n) & 63; rem != 0 && len(v) > 0 {
		v[len(v)-1] &= (1 << rem) - 1
	}
	return v
}

func getBit(v []uint64, i int) bool { return v[i>>6]&(1<<(uint(i)&63)) != 0 }

func pred(v []uint64) func(int) bool { return func(i int) bool { return getBit(v, i) } }

// TestKernelsMatchNaive pins every vectorized kernel to the per-member
// graph walker on randomized truth vectors over several protocol
// universes and the hand-built one, whose member order is not the
// level order and whose child ranges include one wider than a word, and
// a commutation quotient, whose successors form a DAG.
// On the small universes it also tries every one-bit vector and every
// all-but-one vector, so each bit of each child range, the wide one
// included, is once the only true and once the only false member.
func TestKernelsMatchNaive(t *testing.T) {
	for name, u := range universes(t) {
		t.Run(name, func(t *testing.T) {
			tr := u.Transitions()
			r := rand.New(rand.NewSource(20260729))
			n := u.Len()
			unary := []struct {
				name  string
				vec   func(*universe.Transitions, []uint64) []uint64
				naive func(*universe.Transitions, func(int) bool, int) bool
			}{
				{"EX", temporal.EX, temporal.NaiveEX},
				{"AX", temporal.AX, temporal.NaiveAX},
				{"EF", temporal.EF, temporal.NaiveEF},
				{"AF", temporal.AF, temporal.NaiveAF},
				{"EG", temporal.EG, temporal.NaiveEG},
				{"AG", temporal.AG, temporal.NaiveAG},
				{"EY", temporal.EY, temporal.NaiveEY},
				{"AY", temporal.AY, temporal.NaiveAY},
				{"Once", temporal.Once, temporal.NaiveOnce},
				{"Hist", temporal.Hist, temporal.NaiveHist},
			}
			check := func(f, g []uint64, what string) {
				for _, op := range unary {
					got := op.vec(tr, f)
					for i := 0; i < n; i++ {
						if getBit(got, i) != op.naive(tr, pred(f), i) {
							t.Fatalf("%s disagrees with naive at member %d (%s)", op.name, i, what)
						}
					}
				}
				eu, au := temporal.EU(tr, f, g), temporal.AU(tr, f, g)
				for i := 0; i < n; i++ {
					if getBit(eu, i) != temporal.NaiveEU(tr, pred(f), pred(g), i) {
						t.Fatalf("EU disagrees with naive at member %d (%s)", i, what)
					}
					if getBit(au, i) != temporal.NaiveAU(tr, pred(f), pred(g), i) {
						t.Fatalf("AU disagrees with naive at member %d (%s)", i, what)
					}
				}
			}
			// Uniform, dense and sparse vectors in turn.
			draw := func(rep int) []uint64 {
				v := randVec(r, n)
				for range 2 {
					w := randVec(r, n)
					for i := range v {
						switch rep % 3 {
						case 1:
							v[i] |= w[i]
						case 2:
							v[i] &= w[i]
						}
					}
				}
				return v
			}
			for rep := 0; rep < 12; rep++ {
				check(draw(rep), draw(rep), fmt.Sprintf("rep %d", rep))
			}
			if n > 256 {
				return
			}
			all := randVec(r, n)
			for i := range all {
				all[i] = ^uint64(0)
			}
			if rem := uint(n) & 63; rem != 0 {
				all[len(all)-1] &= 1<<rem - 1
			}
			for j := range n {
				one := make([]uint64, len(all))
				one[j>>6] = 1 << (uint(j) & 63)
				butOne := slices.Clone(all)
				butOne[j>>6] &^= one[j>>6]
				check(one, butOne, fmt.Sprintf("only %d true", j))
				check(butOne, one, fmt.Sprintf("only %d false", j))
				check(all, butOne, fmt.Sprintf("g false only at %d", j))
			}
		})
	}
}

// TestFinitePathConventions pins the leaf and root semantics: at a
// member with no extension EX fails and AX holds; AF/AG/EF/EG all
// collapse to the member's own value; dually EY fails and AY holds at
// the null computation.
func TestFinitePathConventions(t *testing.T) {
	u := universes(t)["free"]
	tr := u.Transitions()
	n := u.Len()
	r := rand.New(rand.NewSource(7))
	f := randVec(r, n)
	ex, ax := temporal.EX(tr, f), temporal.AX(tr, f)
	ef, af := temporal.EF(tr, f), temporal.AF(tr, f)
	eg, ag := temporal.EG(tr, f), temporal.AG(tr, f)
	ey, ay := temporal.EY(tr, f), temporal.AY(tr, f)
	leaves, roots := 0, 0
	for i := 0; i < n; i++ {
		if !tr.HasSucc(i) {
			leaves++
			if getBit(ex, i) || !getBit(ax, i) {
				t.Fatalf("leaf %d: EX must fail and AX hold", i)
			}
			for _, v := range [][]uint64{ef, af, eg, ag} {
				if getBit(v, i) != getBit(f, i) {
					t.Fatalf("leaf %d: path operators must collapse to f", i)
				}
			}
		}
		if tr.Parent(i) < 0 {
			roots++
			if getBit(ey, i) || !getBit(ay, i) {
				t.Fatalf("root %d: EY must fail and AY hold", i)
			}
		}
	}
	if leaves == 0 || roots != 1 {
		t.Fatalf("degenerate universe: %d leaves, %d roots", leaves, roots)
	}
}

// TestCTLDualities spot-checks the algebra the evaluator's desugaring
// relies on, directly at the kernel level.
func TestCTLDualities(t *testing.T) {
	for name, u := range universes(t) {
		t.Run(name, func(t *testing.T) {
			tr := u.Transitions()
			n := u.Len()
			r := rand.New(rand.NewSource(11))
			f := randVec(r, n)
			neg := func(v []uint64) []uint64 {
				out := make([]uint64, len(v))
				for w := range v {
					out[w] = ^v[w]
				}
				if rem := uint(n) & 63; rem != 0 && len(out) > 0 {
					out[len(out)-1] &= (1 << rem) - 1
				}
				return out
			}
			eq := func(a, b []uint64, law string) {
				for i := 0; i < n; i++ {
					if getBit(a, i) != getBit(b, i) {
						t.Fatalf("%s violated at member %d", law, i)
					}
				}
			}
			eq(temporal.AX(tr, f), neg(temporal.EX(tr, neg(f))), "AX = ¬EX¬")
			eq(temporal.AG(tr, f), neg(temporal.EF(tr, neg(f))), "AG = ¬EF¬")
			eq(temporal.EG(tr, f), neg(temporal.AF(tr, neg(f))), "EG = ¬AF¬")
			eq(temporal.Hist(tr, f), neg(temporal.Once(tr, neg(f))), "Hist = ¬Once¬")
			tru := neg(make([]uint64, (n+63)/64))
			eq(temporal.EF(tr, f), temporal.EU(tr, tru, f), "EF = E[⊤ U ·]")
			eq(temporal.AF(tr, f), temporal.AU(tr, tru, f), "AF = A[⊤ U ·]")
		})
	}
}
