package diffusing

import (
	"testing"

	"hpl/internal/trace"
)

func TestTopologies(t *testing.T) {
	ch := Chain(4)
	if len(ch.Procs) != 4 {
		t.Fatalf("chain procs = %d", len(ch.Procs))
	}
	if got := len(ch.Neighbors[ch.Procs[0]]); got != 1 {
		t.Errorf("chain endpoint degree = %d", got)
	}
	if got := len(ch.Neighbors[ch.Procs[1]]); got != 2 {
		t.Errorf("chain interior degree = %d", got)
	}
	ring := Ring(5)
	for _, p := range ring.Procs {
		if got := len(ring.Neighbors[p]); got != 2 {
			t.Errorf("ring degree of %s = %d", p, got)
		}
	}
	k := Complete(4)
	for _, p := range k.Procs {
		if got := len(k.Neighbors[p]); got != 3 {
			t.Errorf("complete degree of %s = %d", p, got)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := RunDS(Workload{}); err == nil {
		t.Errorf("empty topology must fail")
	}
	if _, err := RunDS(Workload{Topo: Chain(3), Root: "nope", TotalMessages: 1}); err == nil {
		t.Errorf("foreign root must fail")
	}
	if _, err := RunQuiet(Workload{Topo: Chain(3), TotalMessages: 1}, 0); err == nil {
		t.Errorf("nonpositive threshold must fail")
	}
}

func TestDSDetectsAndIsSound(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		res, err := RunDS(Workload{
			Topo:          Complete(4),
			TotalMessages: 25,
			FanOut:        2,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Fatalf("seed %d: DS failed to detect termination", seed)
		}
		if !res.Correct {
			t.Fatalf("seed %d: DS detection unsound", seed)
		}
		if res.Basic != 25 {
			t.Fatalf("seed %d: basic = %d, want 25", seed, res.Basic)
		}
	}
}

func TestDSOverheadEqualsBasic(t *testing.T) {
	// Dijkstra–Scholten acknowledges every basic message exactly once:
	// the overhead meets the paper's lower bound with ratio exactly 1.
	for _, m := range []int{5, 20, 60} {
		res, err := RunDS(Workload{
			Topo:          Ring(5),
			TotalMessages: m,
			FanOut:        3,
			Seed:          int64(m),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Control != res.Basic {
			t.Fatalf("m=%d: control=%d basic=%d; DS must ack every message exactly once",
				m, res.Control, res.Basic)
		}
	}
}

func TestCreditDetectsAndIsSound(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		res, err := RunCredit(Workload{
			Topo:          Complete(4),
			TotalMessages: 25,
			FanOut:        2,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Fatalf("seed %d: credit detector failed to detect", seed)
		}
		if !res.Correct {
			t.Fatalf("seed %d: credit detection unsound", seed)
		}
	}
}

func TestCreditOverheadAtMostBasic(t *testing.T) {
	// Weight throwing sends one control message per passive transition,
	// never more than one per basic message.
	for seed := int64(0); seed < 8; seed++ {
		res, err := RunCredit(Workload{
			Topo:          Complete(5),
			TotalMessages: 40,
			FanOut:        3,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Control > res.Basic {
			t.Fatalf("seed %d: control=%d > basic=%d", seed, res.Control, res.Basic)
		}
		if res.Control == 0 && res.Basic > 0 {
			t.Fatalf("seed %d: no credit ever returned", seed)
		}
	}
}

func TestQuietDetectorEventuallyUnsound(t *testing.T) {
	// The zero-overhead detector must be wrong on some run: this is the
	// experiment behind the §5 impossibility. With a small threshold and
	// enough work, some schedule declares termination while basic
	// messages are in flight.
	unsound := false
	for seed := int64(0); seed < 40 && !unsound; seed++ {
		res, err := RunQuiet(Workload{
			Topo:          Chain(6),
			TotalMessages: 30,
			FanOut:        1,
			Seed:          seed,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected && !res.Correct {
			unsound = true
		}
	}
	if !unsound {
		t.Fatalf("quiet detector never caught being unsound across 40 seeds")
	}
}

func TestQuietDetectorZeroOverhead(t *testing.T) {
	res, err := RunQuiet(Workload{
		Topo:          Chain(4),
		TotalMessages: 10,
		FanOut:        1,
		Seed:          3,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Control != 0 {
		t.Fatalf("quiet detector sent %d control messages", res.Control)
	}
	if !res.Detected {
		t.Fatalf("quiet detector must always declare eventually")
	}
}

func TestZeroWorkloadDetectsImmediately(t *testing.T) {
	res, err := RunDS(Workload{Topo: Chain(3), TotalMessages: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.Correct || res.Basic != 0 {
		t.Fatalf("empty computation: %+v", res)
	}
	if res.Ratio() != 0 {
		t.Fatalf("ratio of empty run = %v", res.Ratio())
	}
}

// TestBasicEqualsBudget: every unit of the message budget is either
// spent on a basic message or handed on with one, so every run sends
// exactly TotalMessages basic messages, under every detector, fan-out
// and topology — sinks included.
func TestBasicEqualsBudget(t *testing.T) {
	workloads := []Workload{
		{Topo: Chain(5), TotalMessages: 17, FanOut: 1},
		{Topo: Ring(4), TotalMessages: 30, FanOut: 3},
		{Topo: Complete(5), TotalMessages: 40},
		{Topo: Star(4), TotalMessages: 9, FanOut: 2, SinksExceptRoot: true, RoundRobin: true},
	}
	for wi, w := range workloads {
		for seed := int64(0); seed < 5; seed++ {
			w.Seed = seed
			ds, err := RunDS(w)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := RunCredit(w)
			if err != nil {
				t.Fatal(err)
			}
			q, err := RunQuiet(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			for name, res := range map[string]Result{"ds": ds, "credit": cr, "quiet": q} {
				if res.Basic != w.TotalMessages {
					t.Fatalf("workload %d seed %d %s: basic = %d, want %d", wi, seed, name, res.Basic, w.TotalMessages)
				}
			}
		}
	}
}

func TestRecordedComputationsValid(t *testing.T) {
	res, err := RunDS(Workload{Topo: Ring(4), TotalMessages: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewComputation(res.Comp.Events()); err != nil {
		t.Fatalf("DS computation invalid: %v", err)
	}
	res2, err := RunCredit(Workload{Topo: Ring(4), TotalMessages: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewComputation(res2.Comp.Events()); err != nil {
		t.Fatalf("credit computation invalid: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	w := Workload{Topo: Complete(4), TotalMessages: 20, FanOut: 2, Seed: 77}
	a, err := RunDS(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDS(w)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Comp.SameAs(b.Comp) {
		t.Fatalf("same workload must reproduce the run")
	}
}

func TestRatio(t *testing.T) {
	r := Result{Basic: 10, Control: 10}
	if r.Ratio() != 1.0 {
		t.Fatalf("ratio = %v", r.Ratio())
	}
}

// TestWeightArithmetic: base-2 weights halve, add and subtract exactly,
// and are written without trailing zeros.
func TestWeightArithmetic(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{halfWeight("1"), "0.1"},
		{halfWeight("0.011"), "0.0011"},
		{addWeight("0.1", +1, "0.01"), "0.11"},
		{addWeight("0.1", +1, "0.1"), "1"},
		{addWeight("0.11", -1, "0.11"), "0"},
		{addWeight("0", -1, "0.1"), "-0.1"},
		{addWeight("1", +1, "0.1"), "1.1"},
		{addWeight("0.1", -1, "0.000000000000000000000000000000000000000000000000000000000000000000001"),
			"0.011111111111111111111111111111111111111111111111111111111111111111111"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
