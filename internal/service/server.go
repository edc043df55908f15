package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hpl"
	"hpl/internal/obs"
)

// Wire types for the HTTP/JSON API. One request addresses one universe
// (by spec) and carries a batch of formulas, so N related queries cost
// one cache lookup and share the session's memoized truth vectors.

// CheckRequest is the body of POST /v1/check and /v1/check-temporal.
type CheckRequest struct {
	// Universe describes the quantification domain; see hpl.UniverseSpec.
	Universe hpl.UniverseSpec `json:"universe"`
	// Formulas are textual formulas (internal/logic grammar) checked in
	// order against the universe's standard vocabulary. A formula that
	// fails to parse gets its own error result, except one nested past
	// the grammar's bound, which fails the request like an oversized
	// batch.
	Formulas []string `json:"formulas"`
}

// CheckResult is the verdict for one formula of a batch.
type CheckResult struct {
	Formula string `json:"formula"`
	// Holding counts members where the formula holds, out of Total.
	Holding int `json:"holding"`
	Total   int `json:"total"`
	// Valid reports whether the formula holds at every member.
	Valid bool `json:"valid"`
	// FirstFailure is the index of the first failing member (-1 when
	// valid) and Witness that member's rendered event sequence.
	FirstFailure int    `json:"firstFailure"`
	Witness      string `json:"witness,omitempty"`
	// FullHolding and FullTotal re-express Holding and Total over the
	// full universe when the spec requested a symmetry quotient (each
	// member weighted by its orbit size); omitted for full universes,
	// where they would repeat Holding and Total.
	FullHolding int64 `json:"fullHolding,omitempty"`
	FullTotal   int64 `json:"fullTotal,omitempty"`
	// AtInit is the model-checking verdict at the initial (null)
	// computation; only set by /v1/check-temporal.
	AtInit *bool `json:"atInit,omitempty"`
	// Error is a per-formula parse error; the batch's other formulas
	// are unaffected.
	Error string `json:"error,omitempty"`
}

// CheckResponse is the body answering a CheckRequest.
type CheckResponse struct {
	// Universe is the canonical digest of the (clamped) spec — the
	// cache key the query was served under.
	Universe string `json:"universe"`
	// Members is the universe size; Cached whether it was already hot.
	Members int           `json:"members"`
	Cached  bool          `json:"cached"`
	Results []CheckResult `json:"results"`
}

// StatsRequest is the body of POST /v1/universe-stats.
type StatsRequest struct {
	Universe hpl.UniverseSpec `json:"universe"`
}

// StatsResponse describes one (possibly just built) cached universe.
type StatsResponse struct {
	Universe string           `json:"universe"`
	Spec     hpl.UniverseSpec `json:"spec"`
	Members  int              `json:"members"`
	Bytes    int64            `json:"bytes"`
	Cached   bool             `json:"cached"`
	Hits     int64            `json:"hits"`
	// Symmetry is the quotient group's class structure (e.g. "{p,q,r}")
	// when the universe is a symmetry quotient; empty for full
	// universes. FullMembers is then the size of the full universe the
	// quotient stands for (the sum of all orbit sizes) and MaxOrbit the
	// largest single orbit.
	Symmetry    string `json:"symmetry,omitempty"`
	FullMembers int64  `json:"fullMembers,omitempty"`
	MaxOrbit    int64  `json:"maxOrbit,omitempty"`
	// Source reports how the universe became resident: "build",
	// "snapshot" (loaded from the snapshot directory), or "extend"
	// (grown incrementally from a smaller cached bound).
	Source      string   `json:"source"`
	BuildMillis float64  `json:"buildMillis"`
	Atoms       []string `json:"atoms"`
	// MemoBytes is what the session's memo holds (its share of Bytes),
	// MemoVectors its resident truth vectors and MemoEvictions the
	// vectors trimmed from it to keep the cache within its budget.
	MemoBytes     int64 `json:"memoBytes"`
	MemoVectors   int   `json:"memoVectors"`
	MemoEvictions int64 `json:"memoEvictions"`
}

// HealthResponse is the body of GET /v1/health: liveness, process
// vitals, and the registry's cache statistics.
type HealthResponse struct {
	Status string `json:"status"`
	// UptimeSeconds is time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version is the main module version with the VCS revision when the
	// build carries one (debug.ReadBuildInfo); GoVersion the toolchain.
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"goVersion,omitempty"`
	// Goroutines and HeapInuseBytes are point-in-time process vitals —
	// enough to spot a leak from a health probe without opening pprof.
	Goroutines     int    `json:"goroutines"`
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	Stats
}

// buildVersion renders the running binary's version from build info:
// module version, plus the VCS revision (shortened) and dirty marker
// when stamped.
func buildVersion() (version, goVersion string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	version = bi.Main.Version
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		version += " (" + rev + dirty + ")"
	}
	return version, bi.GoVersion
}

// Limits on a single request, so one client cannot wedge the service.
const (
	maxBodyBytes = 1 << 20
	maxBatchSize = 256
)

// Server is the HTTP face of a Registry. It implements http.Handler;
// graceful shutdown is the owning http.Server's Shutdown, which drains
// in-flight queries before returning. Every request is wrapped in the
// observability middleware: per-endpoint request counters and latency
// histograms, an in-flight gauge, X-Request-ID propagation, and the
// optional structured access and slow-query logs.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	started   time.Time
	version   string
	goVersion string

	// slowQuery is the latency threshold above which check requests are
	// logged with their spec digest and formulas; 0 disables.
	slowQuery time.Duration
	// reqTimeout bounds each universe-building request (check,
	// check-temporal, universe-stats); 0 means unbounded. On expiry the
	// client gets a structured 503 deadline_exceeded.
	reqTimeout time.Duration
	// logMu serializes JSON log lines (access + slow-query) onto logW.
	logMu     sync.Mutex
	logW      io.Writer
	accessLog bool
	nextReqID atomic.Uint64
	// procs is GOMAXPROCS when the server was made; it bounds the
	// goroutines that check one batch.
	procs int
}

// ServerOption configures optional Server behavior.
type ServerOption func(*Server)

// WithSlowQueryLog logs check requests slower than threshold — the
// request ID, spec digest, batch, and latency — as one JSON line on the
// server's log writer. threshold <= 0 disables.
func WithSlowQueryLog(threshold time.Duration) ServerOption {
	return func(s *Server) { s.slowQuery = threshold }
}

// WithRequestTimeout bounds every universe-touching request: if the
// universe cannot be produced (built, extended, or loaded) within d,
// the client receives a structured 503 with code deadline_exceeded —
// a transient verdict, since a concurrent or later request may find
// the universe hot. d <= 0 disables. The timeout composes with the
// client's own context: whichever deadline lands first cancels the
// build wait (the build itself keeps running for remaining waiters,
// per the registry's detach semantics).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.reqTimeout = d }
}

// WithAccessLog emits one structured JSON line per finished request on
// the server's log writer.
func WithAccessLog() ServerOption {
	return func(s *Server) { s.accessLog = true }
}

// WithLogWriter directs the access and slow-query logs; the default is
// no output unless a writer is set (cmd/hpld points it at stderr or a
// file).
func WithLogWriter(w io.Writer) ServerOption {
	return func(s *Server) { s.logW = w }
}

// NewServer wires the endpoints over the registry. The Prometheus
// exposition of the process-wide obs registry — engine build phases,
// evaluator memo traffic, registry cache outcomes, and this server's
// own request metrics — is mounted on GET /metrics.
func NewServer(reg *Registry, opts ...ServerOption) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now(), procs: runtime.GOMAXPROCS(0)}
	s.version, s.goVersion = buildVersion()
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		s.handleCheck(w, r, false)
	})
	s.mux.HandleFunc("POST /v1/check-temporal", func(w http.ResponseWriter, r *http.Request) {
		s.handleCheck(w, r, true)
	})
	s.mux.HandleFunc("POST /v1/universe-stats", s.handleUniverseStats)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.Handle("GET /metrics", obs.Default)
	return s
}

// endpointLabel normalizes a request path to a bounded metric label:
// the known routes verbatim, everything else "other" so scans cannot
// inflate label cardinality.
func endpointLabel(path string) string {
	switch path {
	case "/v1/check", "/v1/check-temporal", "/v1/universe-stats", "/v1/health", "/metrics":
		return path
	}
	return "other"
}

// statusWriter captures the response status and size for metrics and
// the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := endpointLabel(r.URL.Path)
	httpInflight.Add(1)
	defer httpInflight.Add(-1)

	// Propagate the client's request ID or mint one; handlers and the
	// logs see the same ID via the response header.
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("hpld-%d-%d", s.started.UnixNano()&0xffffff, s.nextReqID.Add(1))
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	sw.Header().Set("X-Request-ID", id)

	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	d := time.Since(start)

	httpRequests(endpoint, sw.code).Inc()
	httpLatency(endpoint).ObserveDuration(d)
	if s.accessLog && s.logW != nil {
		s.logJSON(map[string]any{
			"ts":        start.UTC().Format(time.RFC3339Nano),
			"level":     "access",
			"requestId": id,
			"method":    r.Method,
			"path":      r.URL.Path,
			"status":    sw.code,
			"bytes":     sw.bytes,
			"millis":    float64(d) / float64(time.Millisecond),
		})
	}
}

// logJSON writes one JSON log line; marshal errors are swallowed (the
// fields are all plain values).
func (s *Server) logJSON(fields map[string]any) {
	line, err := json.Marshal(fields)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.logW.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// Registry returns the server's universe cache.
func (s *Server) Registry() *Registry { return s.reg }

// writeJSON writes v with the given status. The body's length is
// declared, so a flushed response is complete before the handler
// returns.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := json.Marshal(v)
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeError maps an error to a structured JSON response: *Error values
// keep their status and code, everything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	var serr *Error
	if !errors.As(err, &serr) {
		serr = &Error{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
	writeJSON(w, serr.Status, serr)
}

// reqContext derives the handler context: the client's own context,
// additionally bounded by the server's per-request timeout when one is
// configured.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.reqTimeout)
}

// deadlineError converts a deadline expiry into the structured 503 the
// client sees; err is returned unchanged when the deadline is not the
// cause (a client hanging up cancels rather than times out, and that
// is not a server condition worth a structured code).
func (s *Server) deadlineError(err error) error {
	if s.reqTimeout > 0 && errors.Is(err, context.DeadlineExceeded) {
		return &Error{Status: http.StatusServiceUnavailable, Code: CodeDeadlineExceeded,
			Message: fmt.Sprintf("request exceeded the server's %v deadline", s.reqTimeout)}
	}
	return err
}

// decode reads a bounded JSON body.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: "bad request body: " + err.Error()}
	}
	return nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request, temporal bool) {
	start := time.Now()
	var req CheckRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Formulas) == 0 {
		writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: "no formulas in request"})
		return
	}
	if len(req.Formulas) > maxBatchSize {
		writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: fmt.Sprintf("batch of %d formulas exceeds the limit of %d", len(req.Formulas), maxBatchSize)})
		return
	}
	batchSizes(endpointLabel(r.URL.Path)).Observe(float64(len(req.Formulas)))
	ctx, cancel := s.reqContext(r)
	defer cancel()
	e, cached, err := s.reg.Get(ctx, req.Universe)
	if err != nil {
		err = s.deadlineError(err)
		var serr *Error
		if s.slowQuery > 0 && s.logW != nil && errors.As(err, &serr) && serr.Code == CodeDeadlineExceeded {
			// A timed-out request is by definition a slow query: record
			// it with the same shape as an over-threshold success so one
			// log stream answers "where did the time go".
			s.logJSON(map[string]any{
				"ts":        start.UTC().Format(time.RFC3339Nano),
				"level":     "slow_query",
				"requestId": w.Header().Get("X-Request-ID"),
				"path":      r.URL.Path,
				"universe":  req.Universe.Digest(),
				"formulas":  req.Formulas,
				"timeout":   true,
				"millis":    float64(time.Since(start)) / float64(time.Millisecond),
			})
		}
		writeError(w, err)
		return
	}
	// Settle once the response is out: over budget it trims other
	// sessions' memos, and this client need not wait for that.
	defer func() {
		http.NewResponseController(w).Flush()
		s.reg.Settle(e)
	}()
	results, errs := s.checkBatch(e.Checker, req.Formulas, temporal)
	for i, err := range errs {
		if errors.Is(err, hpl.ErrFormulaTooDeep) {
			writeError(w, &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf("formula %d: %v", i, err)})
			return
		}
	}
	writeJSON(w, http.StatusOK, CheckResponse{
		Universe: e.Digest,
		Members:  e.Checker.Universe().Len(),
		Cached:   cached,
		Results:  results,
	})
	if d := time.Since(start); s.slowQuery > 0 && d >= s.slowQuery && s.logW != nil {
		// The check handler owns the slow-query log (rather than the
		// middleware) because only it can say which universe and
		// formulas the time went to.
		s.logJSON(map[string]any{
			"ts":        start.UTC().Format(time.RFC3339Nano),
			"level":     "slow_query",
			"requestId": w.Header().Get("X-Request-ID"),
			"path":      r.URL.Path,
			"universe":  e.Digest,
			"cached":    cached,
			"formulas":  req.Formulas,
			"millis":    float64(d) / float64(time.Millisecond),
		})
	}
}

// checkBatch checks a batch's formulas on one session in parallel and
// returns their results and errors in request order. Formulas are
// claimed by index: the handler's goroutine is one worker, and it starts
// at most min(GOMAXPROCS, batch)−1 helpers, so a batch of one starts
// none. Once nothing is left to claim, the handler waits only for the
// formulas a helper claimed. A helper's panic is re-raised on the
// handler's goroutine, where net/http recovers it, rather than ending
// the process.
func (s *Server) checkBatch(ck *hpl.Checker, inputs []string, temporal bool) ([]CheckResult, []error) {
	n := len(inputs)
	results, errs := make([]CheckResult, n), make([]error, n)
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
	helpers := min(s.procs, n) - 1
	var done chan any // one value per formula a helper checked: nil, or its panic
	if helpers > 0 {
		done = make(chan any, n)
	}
	for range helpers {
		go func() {
			for i, ok := claim(); ok; i, ok = claim() {
				func() {
					defer func() { done <- recover() }()
					results[i], errs[i] = s.checkOne(ck, inputs[i], temporal)
				}()
			}
		}()
	}
	mine := 0
	for i, ok := claim(); ok; i, ok = claim() {
		results[i], errs[i] = s.checkOne(ck, inputs[i], temporal)
		mine++
	}
	for range n - mine {
		if p := <-done; p != nil {
			panic(p)
		}
	}
	return results, errs
}

// checkOne evaluates one formula of a batch against a hot session. A
// parse failure is a per-formula error, not a request failure; it is
// also returned, so the caller can fail the request on a formula nested
// past the grammar's bound.
func (s *Server) checkOne(ck *hpl.Checker, input string, temporal bool) (CheckResult, error) {
	out := CheckResult{Formula: input, FirstFailure: -1}
	fill := func(rep hpl.Report) {
		out.Holding, out.Total = rep.Holding, rep.Total
		out.Valid = rep.Valid()
		out.FirstFailure = rep.FirstFailure
		if rep.FirstFailure >= 0 {
			out.Witness = ck.Universe().At(rep.FirstFailure).String()
		}
		if ck.Universe().IsQuotient() {
			out.FullHolding, out.FullTotal = rep.FullHolding, rep.FullTotal
		}
	}
	if temporal {
		rep, err := ck.ParseAndCheckTemporal(input)
		if err != nil {
			out.Error = err.Error()
			return out, err
		}
		fill(rep.Report)
		atInit := rep.AtInit
		out.AtInit = &atInit
		return out, nil
	}
	rep, err := ck.ParseAndCheck(input)
	if err != nil {
		out.Error = err.Error()
		return out, err
	}
	fill(rep)
	return out, nil
}

func (s *Server) handleUniverseStats(w http.ResponseWriter, r *http.Request) {
	var req StatsRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	e, cached, err := s.reg.Get(ctx, req.Universe)
	if err != nil {
		writeError(w, s.deadlineError(err))
		return
	}
	resp := StatsResponse{
		Universe:    e.Digest,
		Spec:        e.Spec,
		Members:     e.Checker.Universe().Len(),
		Bytes:       e.Bytes(),
		Cached:      cached,
		Hits:        e.Hits(),
		Source:      e.Source,
		BuildMillis: float64(e.BuildDuration) / float64(time.Millisecond),
		Atoms:       e.Checker.Atoms(),
	}
	memo := e.Checker.Evaluator().MemoStats()
	resp.MemoBytes, resp.MemoVectors, resp.MemoEvictions = memo.Bytes, memo.Vectors, memo.Evictions
	if u := e.Checker.Universe(); u.IsQuotient() {
		resp.Symmetry = u.Symmetry().Key()
		resp.FullMembers = u.FullSize()
		// Weight classes are non-empty and sorted by orbit size.
		if wc := u.WeightClasses(); len(wc) > 0 {
			resp.MaxOrbit = wc[len(wc)-1].Size
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Version:        s.version,
		GoVersion:      s.goVersion,
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		Stats:          s.reg.Stats(),
	})
}
