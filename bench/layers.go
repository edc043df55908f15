package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"hpl"
	"hpl/bench/stats"
	"hpl/internal/knowledge"
	"hpl/internal/logic"
	"hpl/internal/obs"
	"hpl/internal/service"
	"hpl/internal/temporal"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// sink keeps probed calls from being optimized away.
var sink any

// medianOf runs f reps times and returns the median duration in seconds.
func medianOf(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timed(f)
	}
	return stats.Median(xs)
}

// buildMedian times reps cold builds, collecting garbage before each so
// that no build pays for the previous one's and the heap stays small.
func buildMedian(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		sink = nil
		runtime.GC()
		xs[i] = timed(f)
	}
	sink = nil
	return stats.Median(xs)
}

// timed runs f once and returns its duration in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// runTrace is the -trace run: it replays the workload's seeded inputs
// in-process through each layer's public functions and reports the
// per-layer metrics. Spans go to outDir/<workload>.trace.json.
func runTrace(ctx context.Context, workload string, sc scale, seed int64, outDir string, stdout io.Writer) (*result, error) {
	res := newResult()
	// The registry's full universe doubles as the oracle's, so the run
	// holds one copy.
	reg := service.NewRegistry(service.Config{})
	e, _, err := reg.Get(ctx, sc.spec)
	if err != nil {
		return nil, err
	}
	o := newOracleOver(sc.spec, e.Checker.Universe())
	if err := probeLayers(res, workload, sc, o, seed); err != nil {
		return nil, err
	}

	// The workload's own requests. serve-fresh never repeats a formula,
	// so its three replays (traced, untraced, handler) get disjoint
	// slices of the stream; the others replay one slice three times.
	n := sc.traceRequests
	pl := servePlan(workload, sc.spec, 3*n, seed)
	if workload == serveFresh {
		n = max(1, sc.traceRequests/8) // fresh formulas cost ~100x a memo hit
		pl = servePlan(workload, sc.spec, 3*n, seed)
	}
	exp, err := o.expect(pl)
	if err != nil {
		return nil, err
	}
	traced, untraced, handled := pl.seq[:n], pl.seq[:n], pl.seq[:n]
	if workload == serveFresh {
		untraced, handled = pl.seq[n:2*n], pl.seq[2*n:3*n]
	}
	quotient := pl.spec.Symmetry == "full"

	srv := service.NewServer(reg)
	warm := warmRequests(workload, pl)
	warmExp, err := o.expect(plan{reqs: warm})
	if err != nil {
		return nil, err
	}
	for i, r := range warm {
		if _, err := serveOnce(srv, r, func(body []byte) error { return warmExp.verify(i, quotient, body) }); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// The three passes interleave request by request, so a disturbance
	// from outside hits all of them alike.
	tr := newTracer()
	hits, misses := memoCounters()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	var tracedTimes, untracedTimes, handler []float64
	var dh, dm, allocBytes, allocObjects uint64
	for k := range n {
		h0, m0 := hits.Value(), misses.Value()
		d, err := replayOne(ctx, reg, pl.reqs[traced[k]], int32(k), tr)
		if err != nil {
			return nil, err
		}
		dh, dm = dh+uint64(hits.Value()-h0), dm+uint64(misses.Value()-m0)
		tracedTimes = append(tracedTimes, d)

		if d, err = replayOne(ctx, reg, pl.reqs[untraced[k]], int32(k), nil); err != nil {
			return nil, err
		}
		untracedTimes = append(untracedTimes, d)

		id := handled[k]
		metrics.Read(allocs)
		b0, o0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
		d, err = serveOnce(srv, pl.reqs[id], func(body []byte) error { return exp.verify(int(id), quotient, body) })
		metrics.Read(allocs)
		allocBytes += allocs[0].Value.Uint64() - b0
		allocObjects += allocs[1].Value.Uint64() - o0
		res.Attempted++
		if err != nil {
			res.fail(err)
		}
		handler = append(handler, d)
	}
	// Phase numbers come from the service replay's spans only.
	svcSpans := tr.spans
	if workload == coldCheck {
		// A cold check builds everything per run: its memo traffic comes
		// from cold replays, one per formula, whose spans follow.
		h0, m0 := hits.Value(), misses.Value()
		if err := replayCold(sc.spec, o, tr, res); err != nil {
			return nil, err
		}
		dh, dm = uint64(hits.Value()-h0), uint64(misses.Value()-m0)
	}

	handlerMed := stats.Median(handler)
	res.set("service.decode_us", 1e6*stats.Median(perRequest(svcSpans, "service.decode")), "us")
	res.set("service.encode_us", 1e6*stats.Median(perRequest(svcSpans, "service.encode")), "us")
	res.set("service.registry_get_us", 1e6*stats.Median(perRequest(svcSpans, "service.registry_get")), "us")
	res.set("service.handler_us", 1e6*handlerMed, "us")
	res.set("service.phase_coverage", stats.Median(childSums(svcSpans))/handlerMed, "ratio")
	res.set("knowledge.memo_hit_ratio", float64(dh)/float64(max(1, dh+dm)), "ratio")
	res.set("runtime.alloc_bytes_per_request", float64(allocBytes)/float64(n), "B")
	res.set("runtime.allocs_per_request", float64(allocObjects)/float64(n), "count")
	res.set("bench.trace_overhead_ratio", stats.Median(tracedTimes)/stats.Median(untracedTimes), "ratio")
	res.note("replayed %d requests x %d formulas per pass; memo hit ratio over %d truth-vector lookups",
		n, pl.batch, dh+dm)

	path := filepath.Join(outDir, workload+".trace.json")
	if err := tr.writeTrace(path, workload); err != nil {
		return nil, err
	}
	res.note("wrote %d spans to %s", len(tr.spans), path)
	printSelfTimes(stdout, tr.spans)
	return res, nil
}

func memoCounters() (hits, misses *obs.Counter) {
	return obs.Default.Counter("hpl_eval_memo_hits_total", ""), obs.Default.Counter("hpl_eval_memo_misses_total", "")
}

// serveOnce sends one request through the service handler into a
// recorder and checks the reply; it returns the handler's time.
func serveOnce(srv *service.Server, r request, verify func([]byte) error) (float64, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body))
	d := timed(func() { srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("%s answered %d: %s", r.path(), rec.Code, rec.Body)
	}
	return d, verify(rec.Body.Bytes())
}

// replayOne runs one request through the handler's steps one public
// call at a time — decode, registry lookup, then per formula parse,
// symmetry validation, evaluation and witness rendering, then encode —
// then the middleware's bookkeeping — with a span around each, and
// returns its total time.
func replayOne(ctx context.Context, reg *service.Registry, r request, rid int32, tr *tracer) (float64, error) {
	t0 := time.Now()
	root := tr.begin("service.request", -1, rid)

	// Decode and encode go through a ResponseWriter and a size-capped
	// body, as the handler's do.
	rec := httptest.NewRecorder()
	sp := tr.begin("service.decode", root, rid)
	var req service.CheckRequest
	dec := json.NewDecoder(http.MaxBytesReader(rec, io.NopCloser(bytes.NewReader(r.body)), 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	sp = tr.begin("service.registry_get", root, rid)
	e, cached, err := reg.Get(ctx, req.Universe)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	ck := e.Checker
	u := ck.Universe()
	resp := service.CheckResponse{Universe: e.Digest, Members: u.Len(), Cached: cached}
	for _, text := range req.Formulas {
		out := service.CheckResult{Formula: text}
		sp = tr.begin("logic.parse", root, rid)
		f, err := ck.Parse(text)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("knowledge.validate_symmetric", root, rid)
		err = ck.ValidateSymmetric(f)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("knowledge.eval", root, rid)
		var rep hpl.Report
		if r.temporal {
			trep := ck.CheckTemporal(f)
			rep, out.AtInit = trep.Report, &trep.AtInit
		} else {
			rep = ck.Check(f)
		}
		tr.end(sp)
		out.Holding, out.Total, out.Valid, out.FirstFailure = rep.Holding, rep.Total, rep.Valid(), rep.FirstFailure
		if u.IsQuotient() {
			out.FullHolding, out.FullTotal = rep.FullHolding, rep.FullTotal
		}
		if rep.FirstFailure >= 0 {
			sp = tr.begin("service.witness", root, rid)
			out.Witness = u.At(rep.FirstFailure).String()
			tr.end(sp)
		}
		resp.Results = append(resp.Results, out)
	}

	sp = tr.begin("service.encode", root, rid)
	rec.Header().Set("Content-Type", "application/json")
	rec.WriteHeader(http.StatusOK)
	err = json.NewEncoder(rec).Encode(resp)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	// The server's middleware sets a request ID and looks up three
	// labelled metrics per request; the same lookups on a private
	// registry cost the same.
	sp = tr.begin("service.middleware", root, rid)
	rec.Header().Set("X-Request-ID", fmt.Sprintf("bench-%d", rid))
	replayMetrics.Histogram("batch_size", "", obs.SizeBuckets, "endpoint", r.path()).Observe(float64(len(req.Formulas)))
	replayMetrics.Counter("requests_total", "", "endpoint", r.path(), "code", strconv.Itoa(http.StatusOK)).Inc()
	replayMetrics.Histogram("request_seconds", "", obs.TimeBuckets, "endpoint", r.path()).ObserveDuration(time.Since(t0))
	tr.end(sp)
	tr.end(root)
	return time.Since(t0).Seconds(), nil
}

// replayMetrics receives the replay's metric lookups, away from the
// service's own metrics in obs.Default.
var replayMetrics = obs.NewRegistry()

// replayCold repeats what one cold mck check does, once per cold-check
// formula, with a span around each step: enumerate the universe, parse,
// build the partitions and transition graph the formula needs, evaluate.
// Verdicts are checked against the oracle.
func replayCold(spec hpl.UniverseSpec, o *oracle, tr *tracer, res *result) error {
	base := int32(1 << 20) // request ids past the service replay's
	for k, q := range coldFormulas(spec.Procs) {
		rid := base + int32(k)
		root := tr.begin("mck.check", -1, rid)
		sp := tr.begin("universe.enumerate", root, rid)
		ck, err := hpl.CheckSpec(spec, hpl.WithParallelism(1))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("logic.parse", root, rid)
		f, err := ck.Parse(q.text)
		tr.end(sp)
		if err != nil {
			return err
		}
		u := ck.Universe()
		sets, temporalOps := formulaNeeds(f, u.All())
		for _, set := range sets {
			sp = tr.begin("universe.partition", root, rid)
			sink = u.Partition(set)
			tr.end(sp)
		}
		if temporalOps {
			sp = tr.begin("universe.transitions", root, rid)
			sink = u.Transitions()
			tr.end(sp)
		}
		sp = tr.begin("knowledge.eval", root, rid)
		var got hpl.Report
		atInit := true
		if q.temporal {
			trep := ck.CheckTemporal(f)
			got, atInit = trep.Report, trep.AtInit
		} else {
			got = ck.Check(f)
		}
		tr.end(sp)
		tr.end(root)

		want, err := o.verdict(q.text, q.temporal)
		res.Attempted++
		if err != nil {
			return err
		}
		if got.Holding != want.Holding || got.FirstFailure != want.FirstFailure || (q.temporal && atInit != *want.AtInit) {
			res.fail(fmt.Errorf("cold replay of %q: holding %d first failure %d, want %d and %d",
				q.text, got.Holding, got.FirstFailure, want.Holding, want.FirstFailure))
		}
	}
	return nil
}

// formulaNeeds returns the process sets whose partitions evaluating f
// reads, and whether f has a temporal operator (which reads the
// transition graph).
func formulaNeeds(f knowledge.Formula, all trace.ProcSet) (sets []trace.ProcSet, temporalOps bool) {
	seen := map[string]bool{}
	add := func(p trace.ProcSet) {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			sets = append(sets, p)
		}
	}
	var walk func(knowledge.Formula)
	walk = func(f knowledge.Formula) {
		switch f := f.(type) {
		case knowledge.NotF:
			walk(f.F)
		case knowledge.AndF:
			walk(f.L)
			walk(f.R)
		case knowledge.OrF:
			walk(f.L)
			walk(f.R)
		case knowledge.ImpliesF:
			walk(f.L)
			walk(f.R)
		case knowledge.KnowsF:
			add(f.P)
			walk(f.F)
		case knowledge.SureF:
			add(f.P)
			walk(f.F)
		case knowledge.CommonF:
			for _, p := range all.IDs() {
				add(trace.Singleton(p))
			}
			walk(f.F)
		case knowledge.EUF:
			temporalOps = true
			walk(f.L)
			walk(f.R)
		case knowledge.AUF:
			temporalOps = true
			walk(f.L)
			walk(f.R)
		case knowledge.EXF:
			temporalOps = true
			walk(f.F)
		case knowledge.AXF:
			temporalOps = true
			walk(f.F)
		case knowledge.EFF:
			temporalOps = true
			walk(f.F)
		case knowledge.AFF:
			temporalOps = true
			walk(f.F)
		case knowledge.EGF:
			temporalOps = true
			walk(f.F)
		case knowledge.AGF:
			temporalOps = true
			walk(f.F)
		case knowledge.EYF:
			temporalOps = true
			walk(f.F)
		case knowledge.AYF:
			temporalOps = true
			walk(f.F)
		case knowledge.OnceF:
			temporalOps = true
			walk(f.F)
		case knowledge.HistF:
			temporalOps = true
			walk(f.F)
		}
	}
	walk(f)
	return sets, temporalOps
}

// probeLayers times each layer's public functions on the workload's
// universe and formulas, outside any request.
func probeLayers(res *result, workload string, sc scale, o *oracle, seed int64) error {
	spec := sc.spec
	sys, err := spec.System()
	if err != nil {
		return err
	}
	u := o.u
	var snap bytes.Buffer
	if err := universe.WriteSnapshot(&snap, u, "bench"); err != nil {
		return err
	}

	// universe: cold builds, each into fresh tables.
	enumerate := func(s hpl.UniverseSpec) func() {
		return func() {
			v, err := universe.EnumerateWith(sys, append(s.EnumOptions(), universe.WithParallelism(1))...)
			if err != nil {
				panic(err) // the same spec enumerated for the oracle
			}
			sink = v
		}
	}
	qspec := spec
	qspec.Symmetry = "full"
	res.set("universe.enumerate_ms", 1000*buildMedian(3, enumerate(spec)), "ms")
	res.set("universe.enumerate_quotient_ms", 1000*buildMedian(3, enumerate(qspec)), "ms")
	var parts []float64
	var sets []trace.ProcSet
	for _, s := range procSubsets(spec.Procs) {
		var ids []trace.ProcID
		for _, p := range strings.Split(s, ",") {
			ids = append(ids, trace.ProcID(p))
		}
		set := trace.NewProcSet(ids...)
		sets = append(sets, set)
		parts = append(parts, buildMedian(1, func() { sink = universe.NewPartition(u, set) }))
	}
	res.set("universe.partition_ms", 1000*stats.Median(parts), "ms")
	res.set("universe.transitions_ms", 1000*buildMedian(3, func() { sink = universe.NewTransitions(u) }), "ms")
	res.set("universe.snapshot_decode_ms", 1000*buildMedian(3, func() {
		v, _, err := universe.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			panic(err) // written above
		}
		sink = v
	}), "ms")
	qck, err := hpl.CheckSpec(qspec)
	if err != nil {
		return err
	}
	res.set("universe.members", float64(u.Len()), "count")
	res.set("universe.quotient_members", float64(qck.Universe().Len()), "count")

	// knowledge: one fresh node each, children evaluated beforehand.
	vocab := logic.NewVocabulary(spec.Predicates()...)
	parse := func(text string) knowledge.Formula { return logic.MustParse(text, vocab) }
	for _, set := range sets {
		sink = u.Partition(set)
	}
	sink = u.Transitions()
	var atoms, knows, common []float64
	for _, name := range atomTexts(spec.Procs) {
		atom := parse(name)
		atoms = append(atoms, timed(func() { knowledge.NewEvaluator(u).Summary(atom) }))
	}
	p, r := spec.Procs[0], spec.Procs[len(spec.Procs)-1]
	body := parse(fmt.Sprintf(`"sent(%s,m)"`, p))
	for _, set := range sets {
		ev := knowledge.NewEvaluator(u)
		ev.Summary(body)
		knows = append(knows, timed(func() { ev.Summary(knowledge.Knows(set, body)) }))
	}
	for _, text := range []string{`"anySent(m)"`, `"anyReceived(m)" -> "anySent(m)"`,
		fmt.Sprintf(`"sent(%s,m)" | "received(%s,m)"`, p, r)} {
		b := parse(text)
		ev := knowledge.NewEvaluator(u)
		ev.Summary(b)
		common = append(common, timed(func() { ev.Summary(knowledge.Common(b)) }))
	}
	res.set("knowledge.atom_us", 1e6*stats.Median(atoms), "us")
	res.set("knowledge.knows_us", 1e6*stats.Median(knows), "us")
	res.set("knowledge.common_us", 1e6*stats.Median(common), "us")

	// Memo hits, witnesses, symmetry validation and weighted counts on
	// the serve pools.
	ck := hpl.NewChecker(u, spec.Predicates()...)
	epi, tmp := servePool(spec.Procs, false)
	var hit, witness []float64
	for _, text := range append(epi, tmp...) {
		f := parse(text)
		rep := ck.Check(f)
		hit = append(hit, medianOf(50, func() { sink = ck.Check(f) }))
		if rep.FirstFailure >= 0 {
			witness = append(witness, medianOf(50, func() { sink = u.At(rep.FirstFailure).String() }))
		}
	}
	res.set("knowledge.eval_hit_us", 1e6*stats.Median(hit), "us")
	res.set("service.witness_us", 1e6*stats.Median(witness), "us")
	sepi, stmp := servePool(spec.Procs, true)
	var validate, weighted []float64
	for _, text := range append(sepi, stmp...) {
		f, err := qck.Parse(text)
		if err != nil {
			return err
		}
		qck.Check(f)
		validate = append(validate, medianOf(50, func() { sink = qck.ValidateSymmetric(f) }))
		weighted = append(weighted, medianOf(20, func() { sink = qck.Evaluator().CountWeighted(f) }))
	}
	res.set("knowledge.validate_symmetric_us", 1e6*stats.Median(validate), "us")
	res.set("knowledge.count_weighted_us", 1e6*stats.Median(weighted), "us")

	// temporal: each kernel on seeded random vectors over the graph.
	t := u.Transitions()
	rng := rand.New(rand.NewSource(seed))
	vec := func() []uint64 {
		v := make([]uint64, (t.Len()+63)/64)
		for i := range v {
			v[i] = rng.Uint64()
		}
		if rem := uint(t.Len()) & 63; rem != 0 {
			v[len(v)-1] &= 1<<rem - 1
		}
		return v
	}
	f, g := vec(), vec()
	res.set("temporal.ex_us", 1e6*medianOf(10, func() { sink = temporal.EX(t, f) }), "us")
	res.set("temporal.eu_us", 1e6*medianOf(10, func() { sink = temporal.EU(t, f, g) }), "us")
	res.set("temporal.au_us", 1e6*medianOf(10, func() { sink = temporal.AU(t, f, g) }), "us")
	res.set("temporal.once_us", 1e6*medianOf(10, func() { sink = temporal.Once(t, f) }), "us")

	// logic and hpl: the workload's own formulas and spec.
	pl := servePlan(workload, spec, 50, seed)
	var parses []float64
	for _, r := range pl.reqs {
		for _, text := range r.formulas {
			parses = append(parses, medianOf(20, func() { sink, _ = logic.Parse(text, vocab) }))
		}
	}
	res.set("logic.parse_us", 1e6*stats.Median(parses), "us")
	res.set("hpl.spec_digest_us", 1e6*medianOf(500, func() {
		if err := pl.spec.Validate(); err != nil {
			panic(err) // every workload's spec is valid
		}
		sink = pl.spec.Canonical()
		sink = pl.spec.Digest()
	}), "us")
	return nil
}
