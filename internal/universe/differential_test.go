package universe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/heartbeat"
	"hpl/internal/protocols/tokenbus"
	"hpl/internal/protocols/tracker"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// enumerable names one protocol instance from internal/protocols plus
// its event bound, for the sequential-vs-parallel differential.
type enumerable struct {
	name      string
	p         universe.Protocol
	maxEvents int
}

func allProtocols(t *testing.T) []enumerable {
	t.Helper()
	hb, err := heartbeat.New("w", "m", 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracker.New("o", "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	return []enumerable{
		{"free", universe.NewFree(universe.FreeConfig{
			Procs:    []trace.ProcID{"p", "q"},
			MaxSends: 2,
		}), 5},
		{"tokenbus", tokenbus.MustNew("p", "q", "r"), 6},
		{"commit", commit.MustNew("c", "p1", "p2"), 8},
		{"heartbeat", hb, hb.SuggestedMaxEvents()},
		{"tracker", tr, tr.SuggestedMaxEvents()},
		{"ackchain", ackchain.MustNew("p", "q", 2), 4},
	}
}

// TestParallelMatchesSequential checks the engine's central contract:
// enumeration with 4 workers yields a byte-identical universe — the
// same member keys in the same level order, hence identical Class
// partitions — as single-threaded enumeration, for every protocol in
// internal/protocols.
func TestParallelMatchesSequential(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			seq, err := universe.EnumerateWith(e.p, universe.WithMaxEvents(e.maxEvents))
			if err != nil {
				t.Fatal(err)
			}
			par, err := universe.EnumerateWith(e.p,
				universe.WithMaxEvents(e.maxEvents), universe.WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}
			if seq.Len() != par.Len() {
				t.Fatalf("Len: sequential %d, parallel %d", seq.Len(), par.Len())
			}
			if seq.Len() < 2 {
				t.Fatalf("degenerate universe (%d members) proves nothing", seq.Len())
			}
			for i := 0; i < seq.Len(); i++ {
				if seq.At(i).Key() != par.At(i).Key() {
					t.Fatalf("member %d differs: %q vs %q", i, seq.At(i).Key(), par.At(i).Key())
				}
			}
			// With identical member order, identical partitions means
			// identical index slices for every class of every relation.
			sets := []trace.ProcSet{seq.All()}
			for _, p := range seq.All().IDs() {
				sets = append(sets, trace.Singleton(p))
			}
			for _, ps := range sets {
				for i := 0; i < seq.Len(); i++ {
					a := seq.Class(seq.At(i), ps)
					b := par.Class(par.At(i), ps)
					if len(a) != len(b) {
						t.Fatalf("class of member %d wrt %v: %d vs %d members", i, ps, len(a), len(b))
					}
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("class of member %d wrt %v differs at %d: %d vs %d", i, ps, k, a[k], b[k])
						}
					}
				}
			}
		})
	}
}

// enumerateReference is the replay-based enumerator the zero-copy
// engine replaced: frontier nodes carry cloned state maps, children are
// rebuilt through trace.FromComputation (full event replay plus
// whole-sequence re-validation), and dedup is by canonical string key.
// It is deliberately the old algorithm, kept as the executable
// specification the production engine is differenced against.
func enumerateReference(p universe.Protocol, maxEvents int) *universe.Universe {
	type rnode struct {
		comp *trace.Computation
		st   map[trace.ProcID]string
	}
	clone := func(st map[trace.ProcID]string) map[trace.ProcID]string {
		cp := make(map[trace.ProcID]string, len(st))
		for k, v := range st {
			cp[k] = v
		}
		return cp
	}
	procs := p.Procs()
	init := make(map[trace.ProcID]string, len(procs))
	for _, id := range procs {
		init[id] = p.Init(id)
	}
	seen := make(map[string]*trace.Computation)
	stack := []rnode{{comp: trace.Empty(), st: init}}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := nd.comp.Key()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = nd.comp
		if nd.comp.Len() >= maxEvents {
			continue
		}
		for _, send := range nd.comp.InFlight() {
			dst := send.Peer
			next, ok := p.Deliver(dst, nd.st[dst], send.Proc, send.Tag)
			if !ok {
				continue
			}
			child := trace.FromComputation(nd.comp).ReceiveMsg(send.Msg).MustBuild()
			st2 := clone(nd.st)
			st2[dst] = next
			stack = append(stack, rnode{comp: child, st: st2})
		}
		for _, id := range procs {
			for _, a := range p.Steps(id, nd.st[id]) {
				b := trace.FromComputation(nd.comp)
				switch a.Kind {
				case trace.KindSend:
					b.Send(id, a.To, a.Tag)
				case trace.KindInternal:
					b.Internal(id, a.Tag)
				}
				child := b.MustBuild()
				st2 := clone(nd.st)
				st2[id] = p.AfterStep(id, nd.st[id], a)
				stack = append(stack, rnode{comp: child, st: st2})
			}
		}
	}
	// Level order: by length, then the parent's position, then hash.
	levels := make([][]*trace.Computation, maxEvents+1)
	for _, c := range seen {
		levels[c.Len()] = append(levels[c.Len()], c)
	}
	pos := make(map[string]int, len(seen))
	comps := make([]*trace.Computation, 0, len(seen))
	for _, level := range levels {
		parentPos := func(c *trace.Computation) int {
			if c.Len() == 0 {
				return -1
			}
			return pos[c.Parent().Key()]
		}
		sort.Slice(level, func(i, j int) bool {
			if pi, pj := parentPos(level[i]), parentPos(level[j]); pi != pj {
				return pi < pj
			}
			return level[i].Hash().Less(level[j].Hash())
		})
		for _, c := range level {
			pos[c.Key()] = len(comps)
			comps = append(comps, c)
		}
	}
	return universe.New(comps, trace.NewProcSet(procs...))
}

// requireIdenticalUniverses fails unless got and want have the same
// member sequence (by canonical string key, not just hash), the same
// Partition tables for every singleton and for D, and the same
// Transitions graph.
func requireIdenticalUniverses(t *testing.T, label string, got, want *universe.Universe) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i).Key() != want.At(i).Key() {
			t.Fatalf("%s: member %d = %q, want %q", label, i, got.At(i).Key(), want.At(i).Key())
		}
	}
	sets := []trace.ProcSet{want.All()}
	for _, p := range want.All().IDs() {
		sets = append(sets, trace.Singleton(p))
	}
	for _, ps := range sets {
		a, b := got.Partition(ps), want.Partition(ps)
		if a.NumClasses() != b.NumClasses() {
			t.Fatalf("%s: partition %v: %d classes, want %d", label, ps, a.NumClasses(), b.NumClasses())
		}
		for i := 0; i < want.Len(); i++ {
			if a.ClassOf(i) != b.ClassOf(i) {
				t.Fatalf("%s: partition %v: member %d in class %d, want %d", label, ps, i, a.ClassOf(i), b.ClassOf(i))
			}
		}
	}
	ta, tb := got.Transitions(), want.Transitions()
	if ta.NumEdges() != tb.NumEdges() {
		t.Fatalf("%s: %d edges, want %d", label, ta.NumEdges(), tb.NumEdges())
	}
	for i := 0; i < want.Len(); i++ {
		if ta.Parent(i) != tb.Parent(i) {
			t.Fatalf("%s: Parent(%d) = %d, want %d", label, i, ta.Parent(i), tb.Parent(i))
		}
		la, oka := ta.Label(i)
		lb, okb := tb.Label(i)
		if la != lb || oka != okb {
			t.Fatalf("%s: Label(%d) = %q,%v, want %q,%v", label, i, la, oka, lb, okb)
		}
		sa, sb := ta.Succ(i), tb.Succ(i)
		if len(sa) != len(sb) {
			t.Fatalf("%s: Succ(%d) has %d members, want %d", label, i, len(sa), len(sb))
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("%s: Succ(%d)[%d] = %d, want %d", label, i, k, sa[k], sb[k])
			}
		}
	}
}

// TestEngineMatchesReference differences the zero-copy engine against
// the replay-based reference enumerator on every protocol in
// internal/protocols, at parallelism 1, 2, and 8: identical member
// sequence, Partition tables, and Transitions graph.
func TestEngineMatchesReference(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			want := enumerateReference(e.p, e.maxEvents)
			if want.Len() < 2 {
				t.Fatalf("degenerate universe (%d members) proves nothing", want.Len())
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := universe.EnumerateWith(e.p,
					universe.WithMaxEvents(e.maxEvents),
					universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalUniverses(t, fmt.Sprintf("workers=%d", workers), got, want)
			}
		})
	}
}

// TestEngineMatchesReferenceRandomFree repeats the reference
// differential on randomized Free-system configurations, so coverage
// is not limited to the protocols someone thought to hand-write.
func TestEngineMatchesReferenceRandomFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allProcs := []trace.ProcID{"p", "q", "r"}
	for trial := 0; trial < 6; trial++ {
		cfg := universe.FreeConfig{
			Procs:       allProcs[:2+rng.Intn(2)],
			MaxSends:    rng.Intn(3),
			MaxInternal: rng.Intn(2),
		}
		if rng.Intn(2) == 1 {
			cfg.SendTags = []string{"m", "n"}
		}
		if cfg.MaxSends == 0 && cfg.MaxInternal == 0 {
			cfg.MaxSends = 1
		}
		maxEvents := 3 + rng.Intn(3)
		name := fmt.Sprintf("trial%d_procs%d_s%d_i%d_me%d",
			trial, len(cfg.Procs), cfg.MaxSends, cfg.MaxInternal, maxEvents)
		t.Run(name, func(t *testing.T) {
			p := universe.NewFree(cfg)
			want := enumerateReference(p, maxEvents)
			for _, workers := range []int{1, 2, 8} {
				got, err := universe.EnumerateWith(p,
					universe.WithMaxEvents(maxEvents),
					universe.WithParallelism(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalUniverses(t, fmt.Sprintf("workers=%d", workers), got, want)
			}
		})
	}
}

// bigFree is a system whose universe is far too large to finish within
// the cancellation tests' deadlines.
func bigFree() universe.Protocol {
	return universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 3,
	})
}

func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := universe.EnumerateWith(bigFree(),
		universe.WithMaxEvents(12), universe.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestContextCancelStopsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := universe.EnumerateWith(bigFree(),
			universe.WithMaxEvents(14),
			universe.WithParallelism(workers),
			universe.WithContext(ctx))
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancellation took %v, want prompt stop", workers, elapsed)
		}
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := universe.EnumerateWith(bigFree(),
		universe.WithMaxEvents(14), universe.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestParallelCap verifies the cap fails gracefully under parallelism
// instead of panicking or deadlocking.
func TestParallelCap(t *testing.T) {
	_, err := universe.EnumerateWith(bigFree(),
		universe.WithMaxEvents(8),
		universe.WithParallelism(4),
		universe.WithCap(100))
	if !errors.Is(err, universe.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}
