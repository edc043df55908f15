package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hpl"
	"hpl/internal/logic"
	"hpl/internal/service"
)

// inProcessServer is the service handler on a loopback listener inside
// the benchmark's own process, used by the tests.
type inProcessServer struct{ ts *httptest.Server }

func startInProcess(snapDir string) (server, error) {
	reg := service.NewRegistry(service.Config{SnapshotDir: snapDir})
	return inProcessServer{httptest.NewServer(service.NewServer(reg))}, nil
}

func (s inProcessServer) URL() string { return s.ts.URL }

func (s inProcessServer) PeakRSSMiB() (float64, error) { return vmHWMMiB("/proc/self/status") }

func (s inProcessServer) Stop() error {
	s.ts.Close()
	return nil
}

// tinySpec keeps every workload to a few thousand members.
var tinySpec = hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4}

func tinyScale() scale {
	return scale{spec: tinySpec, checks: 6, hotRequests: 64, freshRequests: 24, quotientRequests: 32,
		rounds: 2, traceRequests: 16}
}

func TestFormulaGenerator(t *testing.T) {
	a, b := newFormulaGen(tinySpec.Procs, 7), newFormulaGen(tinySpec.Procs, 7)
	other := newFormulaGen(tinySpec.Procs, 8)
	vocab := logic.NewVocabulary(tinySpec.Predicates()...)
	seen := map[string]bool{}
	differs := false
	for i := 0; i < 3000; i++ {
		f := a.next()
		if g := b.next(); g != f {
			t.Fatalf("formula %d: same seed gave %q and %q", i, f, g)
		}
		if other.next() != f {
			differs = true
		}
		if seen[f] {
			t.Fatalf("formula %d repeats: %q", i, f)
		}
		seen[f] = true
		if _, err := logic.Parse(f, vocab); err != nil {
			t.Fatalf("formula %d %q does not parse: %v", i, f, err)
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same formulas")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Request: 0},
		{Name: "a", Start: 10, End: 40, Parent: 0, Request: 0},
		{Name: "leaf", Start: 15, End: 25, Parent: 1, Request: 0},
		{Name: "b", Start: 50, End: 70, Parent: 0, Request: 0},
		{Name: "root", Start: 200, End: 260, Parent: -1, Request: 1},
		{Name: "a", Start: 210, End: 250, Parent: 4, Request: 1},
	}
	want := map[string]time.Duration{"root": 50 + 20, "a": 20 + 40, "leaf": 10, "b": 20}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for n, d := range want {
		if got[n] != d {
			t.Errorf("self time of %s = %d, want %d", n, got[n], d)
		}
	}
	near := func(xs []float64, want ...float64) bool {
		slices.Sort(xs)
		return slices.EqualFunc(xs, want, func(a, b float64) bool { return math.Abs(a-b) < 1e-12 })
	}
	if a := perRequest(spans, "a"); !near(a, 30e-9, 40e-9) {
		t.Errorf("perRequest(a) = %v, want 30ns and 40ns", a)
	}
	if c := childSums(spans); !near(c, 40e-9, 50e-9) {
		t.Errorf("childSums = %v, want 50ns and 40ns", c)
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", -1, 0); i != -1 {
		t.Errorf("nil tracer begin = %d", i)
	}
	nilTracer.end(-1) // must not panic
}

// poisonServer wraps the service handler and spoils three check requests
// after the first: one answers 500, one carries a per-formula error, one
// a wrong holding count.
type poisonServer struct {
	inProcessServer
	mu sync.Mutex
	n  int
}

func startPoisoned(snapDir string) (server, error) {
	reg := service.NewRegistry(service.Config{SnapshotDir: snapDir})
	real := service.NewServer(reg)
	p := &poisonServer{}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/check") {
			real.ServeHTTP(w, r)
			return
		}
		p.mu.Lock()
		p.n++
		n := p.n
		p.mu.Unlock()
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var resp service.CheckResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		switch n {
		case 2:
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		case 3:
			resp.Results[0].Error = "injected"
		case 4:
			resp.Results[0].Holding++
		}
		json.NewEncoder(w).Encode(resp)
	}))
	return p, nil
}

func TestFailRatioCountsEveryKindOfFailure(t *testing.T) {
	sc := tinyScale()
	sc.rounds = 1 // one daemon: its first check request is the warm-up
	res, err := runServe(context.Background(), serveFresh, startPoisoned, sc, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != sc.freshRequests || res.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want %d and 3 (non-200, per-formula error, wrong verdict): %v",
			res.Attempted, res.Failed, sc.freshRequests, res.errs)
	}
	var kinds []string
	for _, err := range res.errs {
		kinds = append(kinds, err.Error())
	}
	joined := strings.Join(kinds, "\n")
	for _, want := range []string{"status 500", "server error injected", "got holding"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no failure mentioning %q in:\n%s", want, joined)
		}
	}
	var out bytes.Buffer
	if err := res.print(&out, serveFresh); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a run with failures printed correct=true")
	}
}

// TestSmokeEveryWorkloadEmitsBenchmarkMetrics runs every workload at a
// tiny scale, the serve workloads against an in-process server, with and
// without -trace, and checks that each run is correct and emits exactly
// the metrics BENCHMARK.json names, with their units.
func TestSmokeEveryWorkloadEmitsBenchmarkMetrics(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := readBenchSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bs.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bs.PerLayer {
		want[true][m.Name] = m.Unit
	}
	binDir := t.TempDir()
	if err := buildBinaries(root, binDir); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{root: root, binDir: binDir, outDir: t.TempDir(), scratchDir: t.TempDir(),
				scale: tinyScale(), seed: 1, trace: traced, stdout: new(bytes.Buffer), start: startInProcess}
			res, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, w); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", w, traced, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w, traced, got.Correct, got.Attempted, got.Failed, res.errs)
			}
			if len(got.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(got.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				m, ok := got.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, traced, name, m, unit)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, w+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}
