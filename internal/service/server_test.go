package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpl"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(NewServer(NewRegistry(cfg)))
	t.Cleanup(ts.Close)
	return ts, &Client{Base: ts.URL, HTTPClient: ts.Client()}
}

var testSpec = hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}

func TestServerCheck(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	resp, err := cl.Check(context.Background(), testSpec,
		`K{q} "sent(p,m)" -> "sent(p,m)"`, // fact 4: knowledge is true
		`K{q} "sent(p,m)"`)                // not valid: q starts ignorant
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Errorf("first request reported cached")
	}
	if resp.Members == 0 || resp.Universe == "" {
		t.Errorf("missing universe metadata: %+v", resp)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results for a 2-formula batch", len(resp.Results))
	}
	if r := resp.Results[0]; !r.Valid || r.Holding != r.Total || r.Error != "" {
		t.Errorf("knowledge-implies-truth not valid: %+v", r)
	}
	if r := resp.Results[1]; r.Valid || r.FirstFailure < 0 || r.Witness == "" {
		t.Errorf("invalid formula lacks failure witness: %+v", r)
	}

	// Second request must hit the hot universe.
	resp2, err := cl.Check(context.Background(), testSpec, `"sent(p,m)" | !"sent(p,m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Errorf("repeat request missed the cache")
	}
	if resp2.Universe != resp.Universe {
		t.Errorf("digest changed between requests: %s vs %s", resp2.Universe, resp.Universe)
	}
}

// TestServerQuotientUniverse serves a symmetry-reduced universe: the
// quotient is cached under its own digest, symmetric formulas answer
// with orbit-weighted counts, asymmetric ones fail per-formula with the
// asymmetry detail, and /v1/universe-stats reports the orbit numbers.
func TestServerQuotientUniverse(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4, Symmetry: "full"}
	resp, err := cl.Check(context.Background(), spec,
		`"anyReceived(m)" -> "anySent(m)"`,
		`K{q} "sent(p,m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; !r.Valid || r.Error != "" || r.FullTotal <= int64(r.Total) || r.FullHolding != r.FullTotal {
		t.Errorf("symmetric formula on quotient: %+v", r)
	}
	if r := resp.Results[1]; r.Error == "" || !strings.Contains(r.Error, "not symmetric") {
		t.Errorf("asymmetric formula must fail per-formula with the asymmetry detail: %+v", r)
	}
	full := spec
	full.Symmetry = "none"
	fresp, err := cl.Check(context.Background(), full, `"anyReceived(m)" -> "anySent(m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Universe == resp.Universe {
		t.Errorf("quotient and full universes share a cache key")
	}
	if got, want := resp.Results[0].FullTotal, int64(fresp.Members); got != want {
		t.Errorf("orbit sizes sum to %d, full universe has %d", got, want)
	}
	st, err := cl.UniverseStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Symmetry == "" || st.FullMembers != int64(fresp.Members) || st.MaxOrbit < 2 {
		t.Errorf("quotient stats missing orbit accounting: %+v", st)
	}
	fst, err := cl.UniverseStats(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Symmetry != "" || fst.FullMembers != 0 {
		t.Errorf("full universe stats must omit orbit fields: %+v", fst)
	}
}

func TestServerCheckTemporal(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	resp, err := cl.CheckTemporal(context.Background(), testSpec,
		`AG (K{q} "sent(p,m)" -> Once "received(q,m)")`, // Theorem 5 gain
		`EF K{q} "sent(p,m)"`)                           // q can come to know
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		if r.AtInit == nil {
			t.Fatalf("result %d: temporal endpoint returned no AtInit verdict", i)
		}
		if !*r.AtInit {
			t.Errorf("result %d (%s): does not hold at init", i, r.Formula)
		}
	}
}

// TestServerBatchPartialError checks that one bad formula in a batch
// fails alone.
func TestServerBatchPartialError(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	resp, err := cl.Check(context.Background(), testSpec,
		`"sent(p,m)"`, `K{q "oops`, `"received(q,m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || resp.Results[2].Error != "" {
		t.Errorf("good formulas failed: %+v", resp.Results)
	}
	if resp.Results[1].Error == "" {
		t.Errorf("bad formula did not report a parse error")
	}
}

func TestServerUniverseStatsAndHealth(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	st, err := cl.UniverseStats(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Members == 0 || st.Bytes == 0 || len(st.Atoms) == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.Cached {
		t.Errorf("first stats call reported cached")
	}
	if !strings.Contains(strings.Join(st.Atoms, " "), "sent(p,m)") {
		t.Errorf("standard atoms missing: %v", st.Atoms)
	}

	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Universes != 1 || h.Bytes != st.Bytes {
		t.Errorf("health snapshot inconsistent: %+v vs universe bytes %d", h, st.Bytes)
	}
}

// TestServerStructuredErrors pins the client-visible 4xx surface:
// malformed JSON, empty batch, bad spec, cap overrun, budget overrun.
func TestServerStructuredErrors(t *testing.T) {
	ts, cl := newTestServer(t, Config{MaxMembers: 10})

	post := func(body string) (int, Error) {
		resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e Error
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	if code, e := post(`{not json`); code != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("malformed JSON: got %d/%s", code, e.Code)
	}
	if code, e := post(`{"universe":{"procs":["p","q"],"maxSends":1},"formulas":[]}`); code != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Errorf("empty batch: got %d/%s", code, e.Code)
	}
	if code, e := post(`{"universe":{"protocol":"chord","procs":["p"]},"formulas":["x"]}`); code != http.StatusBadRequest || e.Code != CodeBadSpec {
		t.Errorf("bad spec: got %d/%s", code, e.Code)
	}
	// 10-member cap: the 2-proc MaxEvents=4 universe overruns → 422.
	if _, err := cl.Check(context.Background(), testSpec, `"sent(p,m)"`); !isServiceError(err, http.StatusUnprocessableEntity, CodeUniverseTooLarge) {
		t.Errorf("cap overrun: got %v", err)
	}

	// Separate server with a tiny byte budget → 413.
	_, cl2 := newTestServer(t, Config{MaxBytes: 512})
	if _, err := cl2.Check(context.Background(), testSpec, `"sent(p,m)"`); !isServiceError(err, http.StatusRequestEntityTooLarge, CodeBudgetExceeded) {
		t.Errorf("budget overrun: got %v", err)
	}
}

// TestServerRejectsDeepNesting posts formulas nested as deeply as a
// body under the 1 MiB cap allows — parentheses and negations, to both
// check endpoints. Each must fail with a structured 400, not exhaust a
// goroutine's stack.
func TestServerRejectsDeepNesting(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	body := func(open, close string) []byte {
		at := func(n int) []byte {
			f := strings.Repeat(open, n) + `"sent(p,m)"` + strings.Repeat(close, n)
			b, err := json.Marshal(CheckRequest{Universe: testSpec, Formulas: []string{`"sent(p,m)"`, f}})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		base := len(at(0))
		return at((maxBodyBytes - base) / (len(open) + len(close)))
	}
	for _, path := range []string{"/v1/check", "/v1/check-temporal"} {
		for _, b := range [][]byte{body("(", ")"), body("!", "")} {
			if len(b) > maxBodyBytes || len(b) < maxBodyBytes-2 {
				t.Fatalf("body is %d bytes, want just under the %d-byte cap", len(b), maxBodyBytes)
			}
			resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			var e Error
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || e.Code != CodeBadRequest ||
				!strings.Contains(e.Message, "formula 1") || !strings.Contains(e.Message, "nests too deeply") {
				t.Errorf("%s: got %d %+v (decode error %v), want 400 %s naming formula 1's nesting",
					path, resp.StatusCode, e, err, CodeBadRequest)
			}
		}
	}
}

func isServiceError(err error, status int, code string) bool {
	var serr *Error
	return errors.As(err, &serr) && serr.Status == status && serr.Code == code
}

// TestServerConcurrentQueries hammers one warm universe with mixed
// epistemic and temporal batches from many goroutines — the
// multi-tenant steady state. Run under -race in CI, it checks that the
// shared Checker session, LRU bookkeeping and hit counters tolerate
// real query concurrency and that every client sees identical verdicts.
func TestServerConcurrentQueries(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4}

	// Warm the universe once so the hammer measures the hot path.
	if _, err := cl.UniverseStats(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	epistemic := []string{
		`K{q} "sent(p,m)" -> "sent(p,m)"`,
		`K{q} K{p} "sent(p,m)" -> K{q} "sent(p,m)"`,
		`"quiescent" | !"quiescent"`,
	}
	temporal := []string{
		`AG (K{q} "sent(p,m)" -> Once "received(q,m)")`,
		`EF K{q} "sent(p,m)"`,
	}

	const goroutines, rounds = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					resp, err := cl.Check(context.Background(), spec, epistemic...)
					if err != nil {
						t.Errorf("check: %v", err)
						return
					}
					for _, res := range resp.Results {
						if res.Error != "" || !res.Valid {
							t.Errorf("epistemic verdict flapped: %+v", res)
							return
						}
					}
				} else {
					resp, err := cl.CheckTemporal(context.Background(), spec, temporal...)
					if err != nil {
						t.Errorf("check-temporal: %v", err)
						return
					}
					for _, res := range resp.Results {
						if res.Error != "" || res.AtInit == nil || !*res.AtInit {
							t.Errorf("temporal verdict flapped: %+v", res)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Universes != 1 || h.Builds != 1 {
		t.Errorf("hammer built extra universes: %+v", h)
	}
	if h.Hits < goroutines*rounds {
		t.Errorf("hit counter lost updates: %d < %d", h.Hits, goroutines*rounds)
	}
}

// TestBatchMatchesSerial posts batches that mix valid formulas,
// per-formula parse errors and over-deep formulas to both check
// endpoints, each to a fresh server at GOMAXPROCS 1, where the handler
// checks the batch alone and in order, and at GOMAXPROCS 8, where it
// starts helpers. The two answers must be byte for byte the same: the
// results in request order, and for a batch with over-deep formulas the
// 400 that names the lowest-indexed one.
func TestBatchMatchesSerial(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4}
	atoms, sets := vocabulary(spec)
	r := rand.New(rand.NewSource(32))
	var mixed []string
	for i := range 24 {
		switch i % 6 {
		case 2:
			mixed = append(mixed, `K{q} "nosuch(p,m)"`)
		case 4:
			mixed = append(mixed, `EF (K{p} "sent(q,m)"`)
		default:
			mixed = append(mixed, hpl.PrintFormula(freshFormula(r, atoms, sets, 3)))
		}
	}
	deep := strings.Repeat("!", 4096) + `"sent(p,m)"`
	withDeep := slices.Insert(slices.Clone(mixed), 9, deep)
	withDeep = slices.Insert(withDeep, 17, deep)

	answer := func(procs int, path string, formulas []string) (int, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		body, err := json.Marshal(CheckRequest{Universe: spec, Formulas: formulas})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewServer(NewRegistry(Config{})).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, path := range []string{"/v1/check", "/v1/check-temporal"} {
		for _, tc := range []struct {
			formulas []string
			status   int
			has      string
		}{
			{mixed, http.StatusOK, `"error":"`},
			{withDeep, http.StatusBadRequest, "formula 9: "},
		} {
			code, serial := answer(1, path, tc.formulas)
			if code != tc.status || !strings.Contains(serial, tc.has) {
				t.Fatalf("%s: serial handler answered %d %s, want %d with %q", path, code, serial, tc.status, tc.has)
			}
			if code, parallel := answer(8, path, tc.formulas); code != tc.status || parallel != serial {
				t.Errorf("%s: %d-formula batch: parallel handler answered %d\n%s\nserial handler %d\n%s",
					path, len(tc.formulas), code, parallel, tc.status, serial)
			}
		}
	}
}
