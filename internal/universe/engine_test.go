package universe

import (
	"bytes"
	"io"
	"testing"

	"hpl/internal/trace"
)

// TestClassReturnsCopy guards the aliasing contract: mutating or
// appending to a returned class must not corrupt the memoized index.
func TestClassReturnsCopy(t *testing.T) {
	u := freeTwoProc(t, 3)
	p := trace.Singleton("q")
	x := u.At(1)

	first := u.Class(x, p)
	if len(first) == 0 {
		t.Fatalf("expected nonempty class")
	}
	want := append([]int(nil), first...)

	// A hostile caller scribbles over the slice and appends past it.
	for i := range first {
		first[i] = -1
	}
	_ = append(first, 12345)

	second := u.Class(x, p)
	if len(second) != len(want) {
		t.Fatalf("class size changed after caller mutation: %d vs %d", len(second), len(want))
	}
	for i := range want {
		if second[i] != want[i] {
			t.Fatalf("class corrupted by caller mutation at %d: %d vs %d", i, second[i], want[i])
		}
	}
}

// TestCanonicalMemberOrder pins member order to the prefix tree's
// level order: member 0 is null, and every later member follows the
// one before it by (length, parent index, hash), its parent before it.
func TestCanonicalMemberOrder(t *testing.T) {
	u := freeTwoProc(t, 4)
	if u.At(0).Len() != 0 {
		t.Fatalf("member 0 is not the null computation")
	}
	parent := func(i int) int { return u.IndexOf(u.At(i).Parent()) }
	for i := 1; i < u.Len(); i++ {
		a, b := u.At(i-1), u.At(i)
		if pb := parent(i); pb < 0 || pb >= i {
			t.Fatalf("member %d's parent %d does not precede it", i, pb)
		}
		switch {
		case a.Len() > b.Len():
			t.Fatalf("members %d,%d out of length order", i-1, i)
		case a.Len() < b.Len():
		case parent(i-1) > parent(i):
			t.Fatalf("members %d,%d out of parent order", i-1, i)
		case parent(i-1) == parent(i) && !a.Hash().Less(b.Hash()):
			t.Fatalf("siblings %d,%d out of hash order", i-1, i)
		}
	}
}

func TestMaxEventsZeroIsNullUniverse(t *testing.T) {
	p := NewFree(FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	u, err := EnumerateWith(p, WithMaxEvents(0))
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 1 || u.At(0).Len() != 0 {
		t.Fatalf("want {null}, got %d members", u.Len())
	}
}

func TestProgressReporting(t *testing.T) {
	p := NewFree(FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	for _, workers := range []int{1, 4} {
		var snaps []Progress
		u, err := EnumerateWith(p,
			WithMaxEvents(5),
			WithParallelism(workers),
			WithProgress(func(pr Progress) { snaps = append(snaps, pr) }),
			withProgressEvery(16),
		)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) < 2 {
			t.Fatalf("workers=%d: got %d progress snapshots, want several", workers, len(snaps))
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i].Explored < snaps[i-1].Explored {
				t.Fatalf("workers=%d: Explored regressed: %+v", workers, snaps)
			}
			if snaps[i].Frontier < 0 {
				t.Fatalf("workers=%d: negative frontier: %+v", workers, snaps[i])
			}
		}
		final := snaps[len(snaps)-1]
		if final.Explored != u.Len() {
			t.Fatalf("workers=%d: final Explored = %d, universe = %d", workers, final.Explored, u.Len())
		}
	}
}

// TestBuildsMakeNoViews pins that no route to a universe — enumeration,
// extension, a snapshot load — builds a member's computation, and
// neither do the consumers that read the columns instead: partition
// tables, the transition graph, stock atoms' history sums, membership
// probes and the snapshot writer. Views appear only once At is called.
func TestBuildsMakeNoViews(t *testing.T) {
	p := NewFree(FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	base := MustEnumerateWith(p, WithMaxEvents(3), WithParallelism(2))
	ext, err := Extend(base, WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, ext, "digest"); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := trace.NewBuilder().Send("p", "q", "m").MustBuild()
	for name, u := range map[string]*Universe{"enumerated": base, "extended": ext, "loaded": loaded} {
		u.Partition(trace.Singleton("q"))
		u.Transitions()
		u.HistorySums(func(trace.Event) int32 { return 1 })
		u.Contains(probe)
		if err := WriteSnapshot(io.Discard, u, "digest"); err != nil {
			t.Fatal(err)
		}
		if u.views != nil {
			t.Errorf("%s universe built member views without an At call", name)
		}
		u.At(u.Len() - 1)
		if u.views == nil {
			t.Errorf("%s universe: At built no view", name)
		}
	}
}
