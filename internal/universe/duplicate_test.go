package universe_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// twinProtocol is a two-process system in which each process performs
// up to three events, each an internal "t" or a send of "m" to the
// other; a process's state counts its events. From its from-th event on,
// Steps lists every action twice. The second internal copy carries To
// "twin", which the engine ignores on internal actions, so both copies
// are the same event. Under diverge, AfterStep marks the state after a
// twin with "*", so the two copies lead to different states.
type twinProtocol struct {
	from    int
	diverge bool
}

func (twinProtocol) Procs() []trace.ProcID { return []trace.ProcID{"p", "q"} }

func (twinProtocol) Init(trace.ProcID) string { return "0" }

func twinCount(state string) int {
	n, _ := strconv.Atoi(strings.TrimSuffix(state, "*"))
	return n
}

func (tp twinProtocol) Steps(p trace.ProcID, state string) []universe.Action {
	n := twinCount(state)
	if n >= 3 {
		return nil
	}
	other := trace.ProcID("q")
	if p == "q" {
		other = "p"
	}
	acts := []universe.Action{
		{Kind: trace.KindInternal, Tag: "t"},
		{Kind: trace.KindSend, To: other, Tag: "m"},
	}
	if n >= tp.from {
		acts = append(acts,
			universe.Action{Kind: trace.KindInternal, To: "twin", Tag: "t"},
			universe.Action{Kind: trace.KindSend, To: other, Tag: "m"})
	}
	return acts
}

func (tp twinProtocol) AfterStep(_ trace.ProcID, state string, a universe.Action) string {
	next := strconv.Itoa(twinCount(state) + 1)
	if tp.diverge && a.To == "twin" {
		next += "*"
	}
	return next
}

func (twinProtocol) Deliver(_ trace.ProcID, state string, _ trace.ProcID, _ string) (string, bool) {
	return state, true
}

func snapshotBytes(t *testing.T, u *universe.Universe) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := universe.WriteSnapshot(&b, u, "twin"); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDuplicateActionsCollapse: a protocol whose Steps lists every
// action twice yields exactly the universe a single copy yields —
// members, partitions, transitions and snapshot bytes (state vectors
// and orbit sizes included) — full and quotient, at parallelism 1/2/8,
// from scratch and through Extend.
func TestDuplicateActionsCollapse(t *testing.T) {
	const bound = 5
	sym, err := universe.FullSymmetry("p", "q")
	if err != nil {
		t.Fatal(err)
	}
	for _, quotient := range []bool{false, true} {
		var opts []universe.Option
		if quotient {
			opts = append(opts, universe.WithSymmetry(sym))
		}
		enum := func(p universe.Protocol, n, workers int) *universe.Universe {
			t.Helper()
			u, err := universe.EnumerateWith(p, append(opts, universe.WithMaxEvents(n), universe.WithParallelism(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		want := enum(twinProtocol{from: bound}, bound, 1)
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("quotient=%v workers=%d", quotient, workers)
			got := enum(twinProtocol{}, bound, workers)
			// Compared after requireIdenticalUniverses, which builds the
			// same partitions on both: snapshots carry the built ones.
			requireIdenticalUniverses(t, label, got, want)
			if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
				t.Fatalf("%s: snapshot bytes differ from the single-copy universe", label)
			}
			ext, err := universe.Extend(enum(twinProtocol{}, bound-2, workers),
				universe.WithMaxEvents(bound), universe.WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalUniverses(t, label+" extended", ext, want)
			if !bytes.Equal(snapshotBytes(t, ext), snapshotBytes(t, want)) {
				t.Fatalf("%s extended: snapshot bytes differ from the single-copy universe", label)
			}
		}
	}
}

// TestDuplicateActionsAmbiguousState: two actions with one event but
// different successor states fail the enumeration with
// ErrAmbiguousStep naming the protocol, and no universe is returned,
// at parallelism 1/2/8, from scratch and through Extend.
func TestDuplicateActionsAmbiguousState(t *testing.T) {
	// Twins appear from each process's first event on, so a bound-1
	// base (which expands only the null computation) is clean and the
	// extension meets them at its seeds.
	p := twinProtocol{from: 1, diverge: true}
	check := func(label string, u *universe.Universe, err error) {
		t.Helper()
		if !errors.Is(err, universe.ErrAmbiguousStep) {
			t.Fatalf("%s: err = %v, want ErrAmbiguousStep", label, err)
		}
		if !strings.Contains(err.Error(), "twinProtocol") {
			t.Fatalf("%s: error %q does not name the protocol", label, err)
		}
		if u != nil {
			t.Fatalf("%s: a universe of %d members was returned with the error", label, u.Len())
		}
	}
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		u, err := universe.EnumerateWith(p, universe.WithMaxEvents(4), universe.WithParallelism(workers))
		check(label, u, err)

		base, err := universe.EnumerateWith(p, universe.WithMaxEvents(1), universe.WithParallelism(workers))
		if err != nil {
			t.Fatalf("%s: base: %v", label, err)
		}
		u, err = universe.Extend(base, universe.WithMaxEvents(4), universe.WithParallelism(workers))
		check(label+" extended", u, err)
	}
}
