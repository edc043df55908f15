package universe_test

import (
	"bytes"
	"testing"

	"hpl/internal/obs"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// phaseIndex maps a trace's phases by name.
func phaseIndex(tr *obs.Trace) map[string]obs.PhaseStat {
	out := make(map[string]obs.PhaseStat)
	for _, ps := range tr.Phases() {
		out[ps.Name] = ps
	}
	return out
}

// TestWithTraceRecordsPhases drives a traced build through enumeration,
// partitioning, the transition graph, and a snapshot encode, and checks
// that each phase lands in the attached trace exactly once.
func TestWithTraceRecordsPhases(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	tr := obs.NewTrace()
	u, err := universe.EnumerateWith(p, universe.WithMaxEvents(4), universe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}

	ph := phaseIndex(tr)
	for _, want := range []string{"enumerate.expand", "enumerate.canonicalize"} {
		if ph[want].Count != 1 {
			t.Errorf("after enumeration, phase %q count = %d, want 1 (phases: %v)", want, ph[want].Count, tr.Phases())
		}
	}
	if _, ok := ph["partition.build"]; ok {
		t.Error("partition.build recorded before any Partition call")
	}

	u.Partition(trace.NewProcSet("p"))
	u.Partition(trace.NewProcSet("p")) // cached: must not record again
	u.Transitions()
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, u, "digest"); err != nil {
		t.Fatal(err)
	}

	ph = phaseIndex(tr)
	for _, want := range []string{"partition.build", "transitions.build", "snapshot.encode"} {
		if ph[want].Count != 1 {
			t.Errorf("phase %q count = %d, want 1 (phases: %v)", want, ph[want].Count, tr.Phases())
		}
	}
	if d := ph["enumerate.expand"].Duration; d <= 0 {
		t.Errorf("enumerate.expand duration = %v, want > 0", d)
	}
}

// TestWithTraceSymmetryPhase checks the symmetry filter's sub-span:
// quotient builds record per-candidate check counts under WithTrace.
func TestWithTraceSymmetryPhase(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 1,
	})
	g, err := universe.FullSymmetry("p", "q", "r")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := universe.EnumerateWith(p, universe.WithMaxEvents(3),
		universe.WithSymmetry(g), universe.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	ph := phaseIndex(tr)
	sym, ok := ph["symmetry.filter"]
	if !ok {
		t.Fatalf("no symmetry.filter phase in %v", tr.Phases())
	}
	if sym.Count <= 0 {
		t.Errorf("symmetry.filter count = %d, want > 0", sym.Count)
	}
}

// TestPrefixIndexPhase checks the prefix.index phase: enumerated and
// snapshot-loaded universes are born with their index, so neither their
// trace nor the prefix_index build-phase histogram records a build,
// while hand-built universes build theirs once, on first use.
func TestPrefixIndexPhase(t *testing.T) {
	builds := obs.Default.Histogram("hpl_build_phase_seconds",
		"Wall time of universe build phases.", obs.TimeBuckets, "phase", "prefix_index")
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	tr := obs.NewTrace()
	before := builds.Count()
	u, err := universe.EnumerateWith(p, universe.WithMaxEvents(4), universe.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	u.Partition(trace.NewProcSet("p"))
	u.Transitions()
	if _, ok := phaseIndex(tr)["prefix.index"]; ok {
		t.Errorf("enumerated universe recorded a prefix.index build (phases: %v)", tr.Phases())
	}
	if got := builds.Count(); got != before {
		t.Errorf("enumerated universe: prefix_index observations %d -> %d, want none", before, got)
	}

	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, u, "digest"); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := universe.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Partition(trace.NewProcSet("q"))
	loaded.Partition(trace.NewProcSet("p", "q"))
	if got := builds.Count(); got != before {
		t.Errorf("snapshot load: prefix_index observations %d -> %d, want none", before, got)
	}

	hand := universe.New(u.Computations(), u.All())
	hand.Transitions()
	if got := builds.Count(); got != before+1 {
		t.Errorf("hand-built universe: prefix_index observations %d -> %d, want one", before, got)
	}
}

// TestUntracedBuildStillCounts checks the global metrics path is fed
// without WithTrace: a plain build moves the build counters.
func TestUntracedBuildStillCounts(t *testing.T) {
	before := obs.Default.Counter("hpl_engine_builds_total",
		"Completed universe enumerations, including extensions.").Value()
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	})
	if _, err := universe.EnumerateWith(p, universe.WithMaxEvents(2)); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Counter("hpl_engine_builds_total",
		"Completed universe enumerations, including extensions.").Value()
	if after <= before {
		t.Errorf("hpl_engine_builds_total did not move: %d -> %d", before, after)
	}
	// Spot-check the exposition contains the build-phase family.
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte(`hpl_build_phase_seconds_count{phase="expand"}`)) {
		t.Error("exposition missing hpl_build_phase_seconds expand series")
	}
}
