package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"hpl"
	"hpl/internal/service"
)

// The four workloads. Each stresses a different layer; README.md records
// why each was chosen and which per-layer numbers should move it.
const (
	coldCheck     = "cold-check"
	serveHot      = "serve-hot"
	serveFresh    = "serve-fresh"
	serveQuotient = "serve-quotient"
)

var workloadNames = []string{coldCheck, serveHot, serveFresh, serveQuotient}

// scale fixes how much work one run does. Runs are fixed-work, not
// fixed-time: a faster commit finishes sooner instead of doing more,
// which matters on serve-fresh, where every formula grows the
// evaluator's memo and a fixed-time run would turn a speed-up into a
// peak-memory regression.
type scale struct {
	// spec is the universe every workload checks; quotient workloads ask
	// for its full-interchange quotient.
	spec hpl.UniverseSpec
	// checks is the number of cold mck runs (a multiple of the six
	// cold-check formulas).
	checks int
	// hotRequests, freshRequests and quotientRequests size the serve
	// workloads' measured phases.
	hotRequests, freshRequests, quotientRequests int
	// rounds is how many times a serve run starts and sets up a fresh
	// daemon (setup_s is the median), each measuring an equal share of
	// the requests. Fresh daemons also bound serve-fresh's memo growth.
	rounds int
	// traceRequests is the size of each in-process replay of a -trace run.
	traceRequests int
}

// referenceSpec is the universe of the ROADMAP's cold and warm numbers:
// three processes, two sends each, six events — 107,593 members, or a
// 17,933-member quotient.
var referenceSpec = hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6}

// Work per -seconds, sized on the 2-CPU machine the benchmark was
// defined on so that a run, set-up included, takes 15-35 s there. They
// are constants: the work a run does depends on -seconds alone, never on
// how fast the commit under test is. serve-fresh is held smaller than
// its speed allows because each new formula grows the daemon's memo by
// about 100 KiB.
const (
	checksPerSecond   = 3.5  // cold mck runs
	hotPerSecond      = 9000 // batch-1 requests
	freshPerSecond    = 100  // batch-4 requests of never-seen formulas
	quotientPerSecond = 2300 // batch-8 requests
)

const (
	formulaBatchFresh = 4 // formulas per serve-fresh request
	formulaBatchQuot  = 8 // formulas per serve-quotient request
)

// scaleFor sizes a run of the reference universe from -seconds.
func scaleFor(seconds int) scale {
	s := float64(seconds)
	return scale{
		spec:             referenceSpec,
		checks:           max(1, int(s*checksPerSecond/6+0.5)) * 6,
		hotRequests:      int(s * hotPerSecond),
		freshRequests:    int(s * freshPerSecond),
		quotientRequests: int(s * quotientPerSecond),
		rounds:           5,
		traceRequests:    2000,
	}
}

// query is one formula and the endpoint that checks it.
type query struct {
	text     string
	temporal bool
}

// coldFormulas are the cold-check formulas: three epistemic (knowledge
// implies truth, nested knowledge, common knowledge) and three temporal
// (the Theorem 5 gain formula, EF K, and an A-until).
func coldFormulas(ids []hpl.ProcID) []query {
	p, r := string(ids[0]), string(ids[len(ids)-1])
	return []query{
		{fmt.Sprintf(`K{%s} "sent(%s,m)" -> "sent(%s,m)"`, r, p, p), false},
		{fmt.Sprintf(`K{%s} K{%s} "sent(%s,m)" -> K{%s} "sent(%s,m)"`, r, p, p, r, p), false},
		{`C ("anyReceived(m)" -> "anySent(m)")`, false},
		{fmt.Sprintf(`AG (K{%s} "sent(%s,m)" -> Once "received(%s,m)")`, r, p, r), true},
		{fmt.Sprintf(`EF K{%s} "sent(%s,m)"`, r, p), true},
		{fmt.Sprintf(`A[!K{%s} "sent(%s,m)" U ("received(%s,m)" | !EF K{%s} "sent(%s,m)")]`, r, p, r, r, p), true},
	}
}

// servePool is the load harness's 8-formula pool (5 epistemic, 3
// temporal). The symmetric pool holds only formulas invariant under
// process interchange, the only ones a quotient answers.
func servePool(ids []hpl.ProcID, symmetric bool) (epistemic, temporal []string) {
	if symmetric {
		all := make([]string, len(ids))
		for i, id := range ids {
			all[i] = string(id)
		}
		k := "K{" + strings.Join(all, ",") + "}"
		return []string{
				`"anyReceived(m)" -> "anySent(m)"`,
				k + ` "anySent(m)" -> "anySent(m)"`,
				k + ` ("anyReceived(m)" -> "anySent(m)")`,
				`C ("anyReceived(m)" -> "anySent(m)")`,
				`"quiescent" | !"quiescent"`,
			}, []string{
				`AG ("anyReceived(m)" -> "anySent(m)")`,
				`EF "anySent(m)"`,
				`A[!"anyReceived(m)" U ("anySent(m)" | !EF "anyReceived(m)")]`,
			}
	}
	p, q := string(ids[0]), string(ids[len(ids)-1])
	return []string{
			fmt.Sprintf(`K{%s} "sent(%s,m)" -> "sent(%s,m)"`, q, p, p),
			fmt.Sprintf(`K{%s} K{%s} "sent(%s,m)" -> K{%s} "sent(%s,m)"`, q, p, p, q, p),
			fmt.Sprintf(`K{%s} "sent(%s,m)"`, q, p),
			fmt.Sprintf(`"received(%s,m)" -> "sent(%s,m)"`, q, p),
			`"quiescent" | !"quiescent"`,
		}, []string{
			fmt.Sprintf(`AG (K{%s} "sent(%s,m)" -> Once "received(%s,m)")`, q, p, q),
			fmt.Sprintf(`EF K{%s} "sent(%s,m)"`, q, p),
			fmt.Sprintf(`A[!K{%s} "sent(%s,m)" U ("received(%s,m)" | !EF K{%s} "sent(%s,m)")]`, q, p, q, q, p),
		}
}

// procSubsets lists the non-empty subsets of ids as formula process
// sets, e.g. "p,q".
func procSubsets(ids []hpl.ProcID) []string {
	var out []string
	for mask := 1; mask < 1<<len(ids); mask++ {
		var s []string
		for i, id := range ids {
			if mask&(1<<i) != 0 {
				s = append(s, string(id))
			}
		}
		out = append(out, strings.Join(s, ","))
	}
	return out
}

// formulaGen generates seeded depth-3 epistemic/temporal formulas over a
// spec's vocabulary, never the same text twice. It is deterministic in
// its seed.
type formulaGen struct {
	rng   *rand.Rand
	atoms []string
	sets  []string
	seen  map[string]bool
}

func newFormulaGen(ids []hpl.ProcID, seed int64) *formulaGen {
	return &formulaGen{rng: rand.New(rand.NewSource(seed)), atoms: atomTexts(ids), sets: procSubsets(ids), seen: map[string]bool{}}
}

// atomTexts are the quoted atoms of the spec vocabulary that can vary
// over the universe (the reference spec has no internal events).
func atomTexts(ids []hpl.ProcID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, fmt.Sprintf(`"sent(%s,m)"`, id), fmt.Sprintf(`"received(%s,m)"`, id))
	}
	return append(out, `"anySent(m)"`, `"anyReceived(m)"`, `"quiescent"`)
}

// next returns a formula text not returned before: three operators
// stacked over an atom. Inner levels recur across formulas, so a fresh
// formula mostly costs its top one or two nodes — new truth vectors,
// not a rebuild of everything beneath them.
func (g *formulaGen) next() string {
	for {
		f := g.atom()
		for range 3 {
			f = g.wrap(f)
		}
		if !g.seen[f] {
			g.seen[f] = true
			return f
		}
	}
}

var (
	unaryOps  = []string{"!", "K", "C", "EX", "EF", "AG", "AF", "EY", "Once", "Hist"}
	binaryOps = []string{"&", "|", "->", "E", "A"}
)

func (g *formulaGen) atom() string { return g.atoms[g.rng.Intn(len(g.atoms))] }

// wrap applies one operator to f: a unary one, or a binary one whose
// other operand is an atom.
func (g *formulaGen) wrap(f string) string {
	f = "(" + f + ")"
	k := g.rng.Intn(len(unaryOps) + len(binaryOps))
	if k < len(unaryOps) {
		switch op := unaryOps[k]; op {
		case "K":
			return "K{" + g.sets[g.rng.Intn(len(g.sets))] + "} " + f
		case "!":
			return "!" + f
		default:
			return op + " " + f
		}
	}
	l, r := f, g.atom()
	if g.rng.Intn(2) == 0 {
		l, r = r, l
	}
	switch op := binaryOps[k-len(unaryOps)]; op {
	case "E", "A":
		return op + "[" + l + " U " + r + "]"
	default:
		return l + " " + op + " " + r
	}
}

// request is one distinct check request of a serve plan.
type request struct {
	temporal bool
	formulas []string
	body     []byte
}

// path is the endpoint the request is sent to.
func (r request) path() string {
	if r.temporal {
		return "/v1/check-temporal"
	}
	return "/v1/check"
}

// plan is a serve workload's request stream: the distinct requests and
// the order they are sent in (indices into reqs).
type plan struct {
	spec hpl.UniverseSpec
	reqs []request
	seq  []int32
	// batch is the number of formulas per request.
	batch int
}

func newRequest(spec hpl.UniverseSpec, temporal bool, formulas []string) request {
	body, err := json.Marshal(service.CheckRequest{Universe: spec, Formulas: formulas})
	if err != nil {
		panic(err) // the request types are plain data
	}
	return request{temporal: temporal, formulas: formulas, body: body}
}

// servePlan builds the seeded request stream of a workload with n
// requests. One request in four goes to the temporal endpoint. Apart
// from serve-fresh, whose every request is new, the distinct requests
// cycle through the workload's pool from each offset, and the stream
// picks among them at random. (cold-check's plan serves its six
// formulas warm; only -trace replays it.)
func servePlan(workload string, spec hpl.UniverseSpec, n int, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	temporalAt := func(i int) bool { return i%4 == 0 }
	pl := plan{spec: spec, batch: 1}
	var epi, tmp []string
	switch workload {
	case serveFresh:
		pl.batch = formulaBatchFresh
		gen := newFormulaGen(spec.Procs, seed)
		for i := 0; i < n; i++ {
			fs := make([]string, pl.batch)
			for j := range fs {
				fs[j] = gen.next()
			}
			pl.reqs = append(pl.reqs, newRequest(spec, temporalAt(i), fs))
			pl.seq = append(pl.seq, int32(i))
		}
		return pl
	case serveHot:
		epi, tmp = servePool(spec.Procs, false)
	case serveQuotient:
		pl.spec.Symmetry = "full"
		pl.batch = formulaBatchQuot
		epi, tmp = servePool(spec.Procs, true)
	case coldCheck:
		for _, q := range coldFormulas(spec.Procs) {
			if q.temporal {
				tmp = append(tmp, q.text)
			} else {
				epi = append(epi, q.text)
			}
		}
	default:
		panic("servePlan: unknown workload " + workload)
	}
	for _, pool := range []struct {
		formulas []string
		temporal bool
	}{{epi, false}, {tmp, true}} {
		for off := range pool.formulas {
			fs := make([]string, pl.batch)
			for j := range fs {
				fs[j] = pool.formulas[(off+j)%len(pool.formulas)]
			}
			pl.reqs = append(pl.reqs, newRequest(pl.spec, pool.temporal, fs))
		}
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(len(epi))
		if temporalAt(i) {
			k = len(epi) + rng.Intn(len(tmp))
		}
		pl.seq = append(pl.seq, int32(k))
	}
	return pl
}

// oracle computes the verdicts a correct server returns, in-process,
// through an hpl.CheckSpec session over the full universe. It opens a
// fresh session every so often so that checking thousands of
// never-repeated formulas does not grow an unbounded memo.
type oracle struct {
	spec  hpl.UniverseSpec
	u     *hpl.Universe
	preds []hpl.Predicate
	ck    *hpl.Checker
	used  int
}

// oracleSessionFormulas bounds how many formulas one oracle session
// memoizes before it is replaced.
const oracleSessionFormulas = 256

func newOracle(spec hpl.UniverseSpec) (*oracle, error) {
	ck, err := hpl.CheckSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return newOracleOver(spec, ck.Universe()), nil
}

// newOracleOver opens an oracle over an already enumerated full universe
// of spec.
func newOracleOver(spec hpl.UniverseSpec, u *hpl.Universe) *oracle {
	preds := spec.Predicates()
	return &oracle{spec: spec, u: u, preds: preds, ck: hpl.NewChecker(u, preds...)}
}

// verdict is the full-universe result for one formula, shaped like the
// service's CheckResult.
func (o *oracle) verdict(text string, temporal bool) (service.CheckResult, error) {
	if o.used++; o.used > oracleSessionFormulas {
		o.ck, o.used = hpl.NewChecker(o.u, o.preds...), 1
	}
	out := service.CheckResult{Formula: text, FirstFailure: -1}
	var rep hpl.Report
	if temporal {
		tr, err := o.ck.ParseAndCheckTemporal(text)
		if err != nil {
			return out, err
		}
		rep = tr.Report
		at := tr.AtInit
		out.AtInit = &at
	} else {
		r, err := o.ck.ParseAndCheck(text)
		if err != nil {
			return out, err
		}
		rep = r
	}
	out.Holding, out.Total, out.Valid, out.FirstFailure = rep.Holding, rep.Total, rep.Valid(), rep.FirstFailure
	if rep.FirstFailure >= 0 {
		out.Witness = o.u.At(rep.FirstFailure).String()
	}
	return out, nil
}

// expected holds the oracle's verdicts for every distinct request of a
// plan.
type expected [][]service.CheckResult

// expect computes the verdicts for every distinct request of pl.
//
// It spreads the requests over one session per CPU: serve-fresh asks for
// thousands of never-seen formulas, and this work, though untimed, is
// part of every run's wall time.
func (o *oracle) expect(pl plan) (expected, error) {
	exp := make(expected, len(pl.reqs))
	workers := max(1, min(runtime.NumCPU(), len(pl.reqs)))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wo := newOracleOver(o.spec, o.u)
			for i := w; i < len(pl.reqs); i += workers {
				r := pl.reqs[i]
				for _, f := range r.formulas {
					v, err := wo.verdict(f, r.temporal)
					if err != nil {
						errs[w] = fmt.Errorf("oracle rejects %q: %w", f, err)
						return
					}
					exp[i] = append(exp[i], v)
				}
			}
		}()
	}
	wg.Wait()
	return exp, errors.Join(errs...)
}

// verify checks a server's response body for distinct request i. On a
// quotient the full-universe counts must equal the full universe's
// holding counts and the verdicts must agree; on a full universe every
// field must match.
func (exp expected) verify(i int, quotient bool, body []byte) error {
	var resp service.CheckResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	want := exp[i]
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d results for %d formulas", len(resp.Results), len(want))
	}
	for k, got := range resp.Results {
		w := want[k]
		if got.Error != "" {
			return fmt.Errorf("formula %q: server error %s", w.Formula, got.Error)
		}
		if quotient {
			if got.FullHolding != int64(w.Holding) || got.FullTotal != int64(w.Total) ||
				got.Valid != w.Valid || !sameAtInit(got.AtInit, w.AtInit) || got.Formula != w.Formula {
				return fmt.Errorf("formula %q: quotient fullHolding %d/%d valid=%v, full universe %d/%d valid=%v",
					w.Formula, got.FullHolding, got.FullTotal, got.Valid, w.Holding, w.Total, w.Valid)
			}
			continue
		}
		if got.Formula != w.Formula || got.Holding != w.Holding || got.Total != w.Total || got.Valid != w.Valid ||
			got.FirstFailure != w.FirstFailure || got.Witness != w.Witness || !sameAtInit(got.AtInit, w.AtInit) ||
			got.FullHolding != 0 || got.FullTotal != 0 {
			return fmt.Errorf("formula %q: got holding %d/%d first failure %d, want %d/%d first failure %d",
				w.Formula, got.Holding, got.Total, got.FirstFailure, w.Holding, w.Total, w.FirstFailure)
		}
	}
	return nil
}

func sameAtInit(a, b *bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}
