package faults_test

import (
	"bytes"
	"strings"
	"testing"

	"hpl/internal/faults"
	"hpl/internal/protocols/ackchain"
	"hpl/internal/protocols/commit"
	"hpl/internal/protocols/heartbeat"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// testProtocols are the inner protocols the fault layer is exercised
// over: two spec-enumerable free systems plus three real protocols. In
// the three-process one every send has two possible destinations, so a
// drop — an internal event that does not name its destination — is
// offered twice by the fault wrap, and the engine must merge the two.
func testProtocols(t *testing.T) []struct {
	name      string
	p         universe.Protocol
	maxEvents int
} {
	t.Helper()
	hb, err := heartbeat.NewPulse("w", "m", 2)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name      string
		p         universe.Protocol
		maxEvents int
	}{
		{"free", universe.NewFree(universe.FreeConfig{
			Procs:    []trace.ProcID{"p", "q"},
			MaxSends: 1,
		}), 4},
		{"free-pqr", universe.NewFree(universe.FreeConfig{
			Procs:    []trace.ProcID{"p", "q", "r"},
			MaxSends: 1,
		}), 4},
		{"ackchain", ackchain.MustNew("p", "q", 2), 4},
		{"commit", commit.MustNew("c", "p1", "p2"), 6},
		{"heartbeat-pulse", hb, 5},
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "none"},
		{"none", "none"},
		{"crash", "crash"},
		{" crash , drop:1 ", "crash,drop:1"},
		{"dup:2,crash", "crash,dup:2"},
		{"crash:q,crash:p,crash:q", "crash:p,crash:q"},
		{"drop:1,dup:1,crash", "crash,drop:1,dup:1"},
		{"drop:0", "none"},
	}
	for _, c := range cases {
		m, err := faults.Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := m.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// String output must re-parse to the same canonical model.
		m2, err := faults.Parse(m.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", m.String(), err)
		}
		if m2.String() != m.String() {
			t.Errorf("String round trip: %q -> %q", m.String(), m2.String())
		}
	}
	for _, bad := range []string{"crash;drop:1", "drop:-1", "dup:x", "lossy", "crash:"} {
		if _, err := faults.Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

// TestReliableWrapByteIdentical pins the identity law: wrapping with
// the reliable model changes nothing — the universes serialize to the
// same bytes (members, state table, partitions untouched).
func TestReliableWrapByteIdentical(t *testing.T) {
	for _, tc := range testProtocols(t) {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := universe.EnumerateWith(tc.p, universe.WithMaxEvents(tc.maxEvents))
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := universe.EnumerateWith(faults.Wrap(tc.p, faults.Reliable()),
				universe.WithMaxEvents(tc.maxEvents))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Len() < 2 {
				t.Fatalf("degenerate universe (%d members) proves nothing", plain.Len())
			}
			var a, b bytes.Buffer
			if err := universe.WriteSnapshot(&a, plain, "d"); err != nil {
				t.Fatal(err)
			}
			if err := universe.WriteSnapshot(&b, wrapped, "d"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("reliable wrap is not byte-identical: %d vs %d snapshot bytes (members %d vs %d)",
					a.Len(), b.Len(), plain.Len(), wrapped.Len())
			}
		})
	}
}

// TestFaultDifferential checks the engine contract over fault-extended
// protocols: enumeration at parallelism 1, 2 and 8 yields identical
// universes of distinct computations, and the fault model strictly
// enlarges each one.
func TestFaultDifferential(t *testing.T) {
	model := faults.Model{CrashAll: true, Drops: 1, Dups: 1}
	for _, tc := range testProtocols(t) {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := universe.EnumerateWith(tc.p, universe.WithMaxEvents(tc.maxEvents))
			if err != nil {
				t.Fatal(err)
			}
			wp := faults.Wrap(tc.p, model)
			var ref *universe.Universe
			for _, par := range []int{1, 2, 8} {
				u, err := universe.EnumerateWith(wp,
					universe.WithMaxEvents(tc.maxEvents),
					universe.WithParallelism(par))
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				if ref == nil {
					ref = u
					continue
				}
				if u.Len() != ref.Len() {
					t.Fatalf("par=%d: %d members, want %d", par, u.Len(), ref.Len())
				}
				for i := 0; i < u.Len(); i++ {
					if u.At(i).Key() != ref.At(i).Key() {
						t.Fatalf("par=%d: member %d differs", par, i)
					}
				}
			}
			seen := make(map[string]int, ref.Len())
			for i := 0; i < ref.Len(); i++ {
				k := ref.At(i).Key()
				if j, dup := seen[k]; dup {
					t.Fatalf("members %d and %d are both %s", j, i, k)
				}
				seen[k] = i
			}
			if ref.Len() <= plain.Len() {
				t.Fatalf("fault model did not enlarge the universe: %d <= %d", ref.Len(), plain.Len())
			}
			// Every fault-free member survives: the wrapped universe is a
			// strict superset at the trace level.
			for i := 0; i < plain.Len(); i++ {
				if !ref.Contains(plain.At(i)) {
					t.Fatalf("fault universe lost fault-free member %d: %s", i, plain.At(i).Key())
				}
			}
		})
	}
}

// TestCrashStopSemantics scans every member of a crash-wrapped
// universe for the crash-stop invariants: no event on a process after
// its crash, and no delivery to a crashed process.
func TestCrashStopSemantics(t *testing.T) {
	sys := ackchain.MustNew("p", "q", 2)
	u, err := universe.EnumerateWith(faults.Wrap(sys, faults.Model{CrashAll: true}),
		universe.WithMaxEvents(6))
	if err != nil {
		t.Fatal(err)
	}
	crashMembers := 0
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		crashed := map[trace.ProcID]bool{}
		for j := 0; j < c.Len(); j++ {
			e := c.At(j)
			if crashed[e.Proc] {
				t.Fatalf("member %d: event %v on %s after its crash", i, e.Kind, e.Proc)
			}
			if e.Kind == trace.KindInternal && e.Tag == faults.TagCrash {
				crashed[e.Proc] = true
			}
		}
		if len(crashed) > 0 {
			crashMembers++
		}
	}
	if crashMembers == 0 {
		t.Fatal("no crash schedules enumerated")
	}
}

// crashWalk walks the heartbeat pulse w -> m (5 beats) with m crashable
// and returns the run and the index of m's crash event, or -1.
func crashWalk(t *testing.T, seed int64) (*trace.Computation, int) {
	t.Helper()
	sys, err := heartbeat.NewPulse("w", "m", 5)
	if err != nil {
		t.Fatal(err)
	}
	p := faults.Wrap(sys, faults.Model{Crash: []trace.ProcID{"m"}})
	c, err := universe.Walk(p, universe.WalkConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range c.Events() {
		if e.Tag == faults.TagCrash {
			return c, i
		}
	}
	return c, -1
}

// TestWalkCrashStopsDelivery: a random walk of a crash-wrapped protocol
// keeps the crash-stop model — a crashed process takes no further
// events, and messages addressed to it stay in flight.
func TestWalkCrashStopsDelivery(t *testing.T) {
	crashes := 0
	for seed := int64(0); seed < 30; seed++ {
		c, crashAt := crashWalk(t, seed)
		if crashAt < 0 {
			continue
		}
		crashes++
		for _, e := range c.Events()[crashAt+1:] {
			if e.Proc == "m" {
				t.Fatalf("seed %d: event %v on m after its crash", seed, e.Kind)
			}
		}
		received := c.Prefix(crashAt).CountKind(trace.Singleton("m"), trace.KindReceive)
		if got := len(c.InFlight()); got != 5-received {
			t.Fatalf("seed %d: %d heartbeats in flight after m crashed having received %d", seed, got, received)
		}
	}
	if crashes == 0 {
		t.Fatal("no seed crashed the monitor")
	}
}

// TestWalkCrashMidRunOnReceive: some seed crashes the monitor mid-run,
// after it has received a heartbeat.
func TestWalkCrashMidRunOnReceive(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		c, crashAt := crashWalk(t, seed)
		if crashAt >= 0 && c.Prefix(crashAt).CountKind(trace.Singleton("m"), trace.KindReceive) > 0 {
			return
		}
	}
	t.Fatal("no seed crashed the monitor after a receive")
}

// TestDropSemantics: a dropped send advances the sender as if sent but
// puts nothing in flight — so there are members where the drop event
// exists and the addressee never receives, and no member both drops
// and delivers the same single message.
func TestDropSemantics(t *testing.T) {
	sys := ackchain.MustNew("p", "q", 1) // single message: p -> q
	u, err := universe.EnumerateWith(faults.Wrap(sys, faults.Model{Drops: 1}),
		universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	dropTag := faults.DropTag(ackchain.Tag(1))
	dropMembers := 0
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		var dropped, sent, received bool
		for j := 0; j < c.Len(); j++ {
			e := c.At(j)
			switch {
			case e.Kind == trace.KindInternal && e.Tag == dropTag:
				dropped = true
			case e.Kind == trace.KindSend && e.Tag == ackchain.Tag(1):
				sent = true
			case e.Kind == trace.KindReceive && e.Tag == ackchain.Tag(1):
				received = true
			}
		}
		if dropped {
			dropMembers++
			if sent || received {
				// Total=1: the only send can either happen or be dropped.
				t.Fatalf("member %d: message both dropped and sent/received", i)
			}
		}
	}
	if dropMembers == 0 {
		t.Fatal("no drop schedules enumerated")
	}
}

// TestDupAbsorption: duplicated deliveries are visible as receive
// events but never corrupt the inner state machine — the commit
// coordinator still requires one real vote per participant before
// deciding, even when the channel duplicates votes.
func TestDupAbsorption(t *testing.T) {
	sys := commit.MustNew("c", "p1", "p2")
	u, err := universe.EnumerateWith(faults.Wrap(sys, faults.Model{Dups: 1}),
		universe.WithMaxEvents(7))
	if err != nil {
		t.Fatal(err)
	}
	dupReceives := 0
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		realVotes, decided := 0, false
		for j := 0; j < c.Len(); j++ {
			e := c.At(j)
			if e.Proc == "c" && e.Kind == trace.KindReceive {
				if strings.HasPrefix(e.Tag, faults.DupPrefix) {
					dupReceives++
				} else {
					realVotes++
				}
			}
			if e.Kind == trace.KindSend && e.Proc == "c" {
				decided = true
				if realVotes < 2 {
					t.Fatalf("member %d: coordinator decided after %d real votes (duplicates counted?)", i, realVotes)
				}
			}
		}
		_ = decided
	}
	if dupReceives == 0 {
		t.Fatal("no duplicated deliveries enumerated")
	}
}

// TestSymmetryPreservation: wrapping a symmetric protocol with a
// process-uniform model keeps its declared group (quotient enumeration
// stays exact); naming a specific crash process drops it.
func TestSymmetryPreservation(t *testing.T) {
	free := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 1,
	})
	uniform := faults.Wrap(free, faults.Model{CrashAll: true})
	g := universe.InferSymmetry(uniform)
	if g.Trivial() {
		t.Fatal("uniform crash model lost the inner protocol's symmetry")
	}
	full, err := universe.EnumerateWith(uniform, universe.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	quot, err := universe.EnumerateWith(uniform, universe.WithMaxEvents(4), universe.WithSymmetry(g))
	if err != nil {
		t.Fatal(err)
	}
	if quot.FullSize() != int64(full.Len()) {
		t.Fatalf("quotient orbit accounting: FullSize %d, full universe %d", quot.FullSize(), full.Len())
	}
	if quot.Len() >= full.Len() {
		t.Fatalf("quotient did not reduce: %d >= %d", quot.Len(), full.Len())
	}

	pinned := faults.Wrap(free, faults.Model{Crash: []trace.ProcID{"p"}})
	if g := universe.InferSymmetry(pinned); !g.Trivial() {
		t.Fatal("process-specific crash model must not declare symmetry")
	}
}

// TestUnwrap returns the inner protocol.
func TestUnwrap(t *testing.T) {
	sys := ackchain.MustNew("p", "q", 1)
	if got := faults.Unwrap(faults.Wrap(sys, faults.Model{CrashAll: true})); got != universe.Protocol(sys) {
		t.Fatalf("Unwrap = %v, want the inner system", got)
	}
	if got := faults.Unwrap(sys); got != nil {
		t.Fatalf("Unwrap(non-wrapper) = %v, want nil", got)
	}
}
