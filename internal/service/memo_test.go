package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hpl"
)

// freshFormula draws a depth-bounded formula over the atoms, with K
// over the given process sets, C and the temporal operators.
func freshFormula(r *rand.Rand, atoms []hpl.Formula, sets []hpl.ProcSet, depth int) hpl.Formula {
	if depth <= 0 || r.Intn(5) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	sub := func() hpl.Formula { return freshFormula(r, atoms, sets, depth-1) }
	switch r.Intn(12) {
	case 0:
		return hpl.Not(sub())
	case 1:
		return hpl.And(sub(), sub())
	case 2:
		return hpl.Implies(sub(), sub())
	case 3, 4:
		return hpl.Knows(sets[r.Intn(len(sets))], sub())
	case 5:
		return hpl.Common(sub())
	case 6:
		return hpl.EX(sub())
	case 7:
		return hpl.EF(sub())
	case 8:
		return hpl.AG(sub())
	case 9:
		return hpl.Once(sub())
	case 10:
		return hpl.EU(sub(), sub())
	default:
		return hpl.AU(sub(), sub())
	}
}

// vocabulary returns the spec's atoms and every non-empty set of its
// processes.
func vocabulary(spec hpl.UniverseSpec) ([]hpl.Formula, []hpl.ProcSet) {
	var atoms []hpl.Formula
	for _, p := range spec.Predicates() {
		atoms = append(atoms, hpl.NewAtom(p))
	}
	procs := spec.Canonical().Procs
	var sets []hpl.ProcSet
	for mask := 1; mask < 1<<len(procs); mask++ {
		var s []hpl.ProcID
		for i, p := range procs {
			if mask&(1<<i) != 0 {
				s = append(s, p)
			}
		}
		sets = append(sets, hpl.NewProcSet(s...))
	}
	return atoms, sets
}

// serveCheck posts a check request straight to the handler, so that
// the request's Settle has run when it returns.
func serveCheck(t *testing.T, h http.Handler, req CheckRequest) CheckResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var resp CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRegistryTrimsMemoToBudget feeds 20,000 fresh formulas, four per
// check request, to one server whose budget is its universe's estimate
// plus 4 MiB. After every request the charged total must be within the
// budget, the universe must still be the one cached (never evicted,
// never refused with a 413), and every verdict must equal that of a
// session that is never trimmed. The memo must have been trimmed.
func TestRegistryTrimsMemoToBudget(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4}
	probe, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := probe.Universe()
	budget := EstimateBytes(u) + 4<<20
	srv := NewServer(NewRegistry(Config{MaxBytes: budget}))
	reg := srv.Registry()

	atoms, sets := vocabulary(spec)
	const formulas, batch = 20000, 4
	// The reference sessions are never trimmed; a fresh one every 500
	// formulas keeps the test's own memory small.
	var oracle *hpl.Checker
	r := rand.New(rand.NewSource(30))
	seen := make(map[string]bool)
	for sent := 0; sent < formulas; sent += batch {
		req := CheckRequest{Universe: spec}
		for len(req.Formulas) < batch {
			text := hpl.PrintFormula(freshFormula(r, atoms, sets, 3))
			if !seen[text] {
				seen[text] = true
				req.Formulas = append(req.Formulas, text)
			}
		}
		resp := serveCheck(t, srv, req)
		if sent%500 == 0 {
			oracle = hpl.NewChecker(u, spec.Predicates()...)
		}
		for i, got := range resp.Results {
			want, err := oracle.ParseAndCheck(req.Formulas[i])
			if err != nil || got.Error != "" {
				t.Fatalf("%s: server error %q, reference error %v", req.Formulas[i], got.Error, err)
			}
			if got.Valid != want.Valid() || got.Holding != want.Holding || got.FirstFailure != want.FirstFailure {
				t.Fatalf("%s: server says valid=%v holding=%d first=%d, untrimmed session valid=%v holding=%d first=%d",
					req.Formulas[i], got.Valid, got.Holding, got.FirstFailure, want.Valid(), want.Holding, want.FirstFailure)
			}
		}
		if st := reg.Stats(); st.Bytes > st.MaxBytes || st.Evictions != 0 || st.Universes != 1 || st.Builds != 1 {
			t.Fatalf("after request %d: %+v", sent/batch, st)
		}
	}
	e, cached, err := reg.Get(context.Background(), spec)
	if err != nil || !cached {
		t.Fatalf("universe not cached after the run: cached=%v err=%v", cached, err)
	}
	if st := e.Checker.Evaluator().MemoStats(); st.Evictions == 0 {
		t.Fatalf("a 4 MiB memo allowance forced no trim over %d formulas: %+v", formulas, st)
	}
}

// TestMemoObservability checks the memo's wire surface: after fresh
// formulas overrun a 64 KiB memo allowance, /v1/universe-stats reports
// the session's memo bytes, resident vectors and evictions, with the
// memo bytes as the part of the entry's bytes above its estimate, and
// /metrics carries the memo gauge and a moved eviction counter.
func TestMemoObservability(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 5}
	probe, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	estimate := EstimateBytes(probe.Universe())
	ts, cl := newTestServer(t, Config{MaxBytes: estimate + 64<<10})
	before := scrape(t, ts)

	atoms, sets := vocabulary(spec)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		req := CheckRequest{Universe: spec, Formulas: make([]string, 4)}
		for k := range req.Formulas {
			req.Formulas[k] = hpl.PrintFormula(freshFormula(r, atoms, sets, 3))
		}
		serveCheck(t, ts.Config.Handler, req)
	}
	st, err := cl.UniverseStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoBytes <= 0 || st.MemoVectors <= 0 || st.MemoEvictions <= 0 || st.Bytes-st.MemoBytes != estimate {
		t.Errorf("universe stats: bytes %d (estimate %d), memo bytes %d, vectors %d, evictions %d",
			st.Bytes, estimate, st.MemoBytes, st.MemoVectors, st.MemoEvictions)
	}
	after := scrape(t, ts)
	if v := seriesValue(after, "hpl_eval_memo_bytes"); v != float64(st.MemoBytes) {
		t.Errorf("hpl_eval_memo_bytes = %g, want the session's %d", v, st.MemoBytes)
	}
	series := "hpl_eval_memo_evictions_total"
	if d := seriesValue(after, series) - seriesValue(before, series); d < float64(st.MemoEvictions) {
		t.Errorf("%s moved by %g, want at least the session's %d evictions", series, d, st.MemoEvictions)
	}
}

// TestSettleRacesQueries runs two clients of fresh formulas against
// each of two universes under a budget that fits both universes and
// 64 KiB of memo, so that trims race queries on the same session and on
// the other one (run under -race in CI). Every verdict must equal an
// untrimmed session's, both memos must have been trimmed, and once
// every request has been settled the cache must be within its budget
// without having evicted either universe.
func TestSettleRacesQueries(t *testing.T) {
	specs := []hpl.UniverseSpec{
		{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4},
		{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 5},
	}
	var budget int64 = 64 << 10
	probes := make([]*hpl.Checker, len(specs))
	for i, spec := range specs {
		probe, err := hpl.CheckSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = probe
		budget += EstimateBytes(probe.Universe())
	}
	ts, cl := newTestServer(t, Config{MaxBytes: budget})
	const clients, requests = 4, 50
	texts := make([][]string, clients)
	r := rand.New(rand.NewSource(2))
	for c := range texts {
		atoms, sets := vocabulary(specs[c%len(specs)])
		for range requests * 2 {
			texts[c] = append(texts[c], hpl.PrintFormula(freshFormula(r, atoms, sets, 3)))
		}
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := specs[c%len(specs)]
			oracle := hpl.NewChecker(probes[c%len(specs)].Universe(), spec.Predicates()...)
			for k := 0; k < len(texts[c]); k += 2 {
				resp, err := cl.Check(context.Background(), spec, texts[c][k:k+2]...)
				if err != nil {
					t.Error(err)
					return
				}
				for i, got := range resp.Results {
					want, err := oracle.ParseAndCheck(texts[c][k+i])
					if err != nil || got.Valid != want.Valid() || got.Holding != want.Holding || got.FirstFailure != want.FirstFailure {
						t.Errorf("client %d: %s: server %+v, untrimmed session %+v (%v)", c, texts[c][k+i], got, want, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, spec := range specs {
		st, err := cl.UniverseStats(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemoEvictions == 0 {
			t.Errorf("a 64 KiB memo allowance forced no trim of %s: %+v", st.Universe, st)
		}
	}
	// Close waits for the handlers, whose Settle runs after the
	// response.
	ts.Close()
	if st := ts.Config.Handler.(*Server).Registry().Stats(); st.Bytes > st.MaxBytes || st.Evictions != 0 || st.Universes != len(specs) {
		t.Errorf("cache after the run: %+v", st)
	}
}
