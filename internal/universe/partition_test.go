package universe_test

import (
	"slices"
	"sync"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

func partitionUniverse(t *testing.T) *universe.Universe {
	t.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPartitionMatchesClassScan checks the partition table against the
// pairwise-comparison ground truth for every member and several process
// sets.
func TestPartitionMatchesClassScan(t *testing.T) {
	u := partitionUniverse(t)
	sets := []trace.ProcSet{
		trace.Singleton("p"),
		trace.Singleton("q"),
		trace.NewProcSet("p", "q"),
		trace.NewProcSet(),
	}
	for _, p := range sets {
		pt := u.Partition(p)
		if pt.Len() != u.Len() {
			t.Fatalf("partition %s covers %d members, universe has %d", p, pt.Len(), u.Len())
		}
		covered := 0
		for c := int32(0); c < int32(pt.NumClasses()); c++ {
			covered += len(pt.MembersOf(c))
		}
		if covered != u.Len() {
			t.Fatalf("partition %s classes cover %d members, want %d", p, covered, u.Len())
		}
		for i := 0; i < u.Len(); i++ {
			got := pt.MembersOf(pt.ClassOf(i))
			want := u.ClassScan(u.At(i), p)
			if len(got) != len(want) {
				t.Fatalf("member %d set %s: partition class %v, scan %v", i, p, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("member %d set %s: partition class %v, scan %v", i, p, got, want)
				}
			}
		}
	}
}

// TestPartitionClassViews checks that Class and ClassRef are views over
// the partition, for members and for outside computations.
func TestPartitionClassViews(t *testing.T) {
	u := partitionUniverse(t)
	p := trace.Singleton("q")
	pt := u.Partition(p)
	for i := 0; i < u.Len(); i++ {
		want := pt.MembersOf(pt.ClassOf(i))
		got := u.ClassRef(u.At(i), p)
		if len(got) != len(want) {
			t.Fatalf("ClassRef(%d) = %v, want %v", i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("ClassRef(%d) = %v, want %v", i, got, want)
			}
		}
	}
	// An outside computation with a projection matching a member's class.
	outside := trace.NewBuilder().
		Send("p", "q", "m").
		Receive("q", "p").
		Internal("p", "extra").
		MustBuild()
	if u.Contains(outside) {
		t.Fatalf("test computation unexpectedly enumerated (universe bounds changed?)")
	}
	got := u.ClassRef(outside, p)
	want := u.ClassScan(outside, p)
	if len(got) != len(want) {
		t.Fatalf("outside ClassRef = %v, scan = %v", got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("outside ClassRef = %v, scan = %v", got, want)
		}
	}
	// An outside computation with a projection no member has.
	alien := trace.NewBuilder().Internal("q", "alien").MustBuild()
	if got := u.ClassRef(alien, p); len(got) != 0 {
		t.Fatalf("alien projection matched class %v", got)
	}
}

// TestPartitionConcurrentBuild hammers Partition from many goroutines;
// the cached table must be built exactly once per process set and every
// caller must observe the same table (run under -race in CI).
func TestPartitionConcurrentBuild(t *testing.T) {
	u := partitionUniverse(t)
	sets := []trace.ProcSet{
		trace.Singleton("p"),
		trace.Singleton("q"),
		trace.NewProcSet("p", "q"),
	}
	const goroutines = 16
	got := make([]*universe.Partition, goroutines*len(sets))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for si, p := range sets {
				got[g*len(sets)+si] = u.Partition(p)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for si := range sets {
			if got[g*len(sets)+si] != got[si] {
				t.Fatalf("goroutine %d observed a different partition for %s", g, sets[si])
			}
		}
	}
}

// TestNewPartitionDeterministic checks that class identifiers do not
// depend on who built the table: a fresh uncached build equals the
// cached one class by class.
func TestNewPartitionDeterministic(t *testing.T) {
	u := partitionUniverse(t)
	p := trace.NewProcSet("p", "q")
	a := u.Partition(p)
	b := universe.NewPartition(u, p)
	if a.NumClasses() != b.NumClasses() {
		t.Fatalf("class counts differ: %d vs %d", a.NumClasses(), b.NumClasses())
	}
	for i := 0; i < u.Len(); i++ {
		if a.ClassOf(i) != b.ClassOf(i) {
			t.Fatalf("member %d classed %d vs %d", i, a.ClassOf(i), b.ClassOf(i))
		}
	}
}

// TestPartitionByLabelMatchesPartition rebuilds each [P]-partition from
// sparse per-member labels (a class's identifier scaled and shifted):
// the classes and their numbering by first occurrence must come back
// unchanged, and the label table answers no projection-key lookups.
// Components over the rebuilt singleton tables equal the universe's.
func TestPartitionByLabelMatchesPartition(t *testing.T) {
	u := partitionUniverse(t)
	var singles []*universe.Partition
	for _, p := range []trace.ProcSet{trace.Singleton("p"), trace.Singleton("q"), trace.NewProcSet("p", "q"), trace.NewProcSet()} {
		want := u.Partition(p)
		label := make([]int32, u.Len())
		for i := range label {
			label[i] = 3*(int32(want.NumClasses())-want.ClassOf(i)) + 1
		}
		got := universe.PartitionByLabel(p, label)
		if got.Len() != want.Len() || got.NumClasses() != want.NumClasses() || got.Set().Key() != p.Key() {
			t.Fatalf("%s: %d members in %d classes, want %d in %d", p, got.Len(), got.NumClasses(), want.Len(), want.NumClasses())
		}
		for i := range u.Len() {
			if got.ClassOf(i) != want.ClassOf(i) || !slices.Equal(got.MembersOf(got.ClassOf(i)), want.MembersOf(want.ClassOf(i))) {
				t.Fatalf("%s: member %d in class %d %v, want %d %v", p, i,
					got.ClassOf(i), got.MembersOf(got.ClassOf(i)), want.ClassOf(i), want.MembersOf(want.ClassOf(i)))
			}
		}
		if _, ok := got.ClassOfKey(u.At(0).ProjectionKey(p)); ok {
			t.Fatalf("%s: a label partition resolved a projection key", p)
		}
		if p.Len() == 1 {
			singles = append(singles, got)
		}
	}
	label, n := universe.ComponentsOf(u.Len(), singles)
	wantLabel, wantN := u.Components()
	if n != wantN || !slices.Equal(label, wantLabel) {
		t.Fatalf("components over label partitions: %d, universe: %d", n, wantN)
	}
}
