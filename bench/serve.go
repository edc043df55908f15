package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"hpl"
	"hpl/bench/stats"
	"hpl/internal/service"
)

// windowsPerRound is how many consecutive windows each round's requests
// are cut into. Each metric is the median over all windows of a run, so
// one window disturbed by a neighbour on the shared machine does not
// move it.
const windowsPerRound = 3

// runServe measures one serve workload against servers made by start.
// It fills a snapshot directory (untimed), then runs sc.rounds rounds:
// each starts a daemon over the snapshots and sets it up (timed, for
// setup_s), drives its share of the plan through a closed loop, reads
// the daemon's peak memory and stops it. Every verdict is checked after
// the round.
func runServe(ctx context.Context, workload string, start startFunc, sc scale, seed int64, workDir string) (*result, error) {
	n := map[string]int{serveHot: sc.hotRequests, serveFresh: sc.freshRequests, serveQuotient: sc.quotientRequests}[workload]
	pl := servePlan(workload, sc.spec, n, seed)
	o, err := newOracle(sc.spec)
	if err != nil {
		return nil, err
	}
	exp, err := o.expect(pl)
	if err != nil {
		return nil, err
	}
	warm := warmRequests(workload, pl)
	warmExp, err := o.expect(plan{reqs: warm})
	if err != nil {
		return nil, err
	}
	quotient := pl.spec.Symmetry == "full"

	snapDir := filepath.Join(workDir, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	srv, err := start(snapDir)
	if err != nil {
		return nil, err
	}
	_, err = universeStats(ctx, srv.URL(), pl.spec)
	if serr := srv.Stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("filling the snapshot directory: %w", err)
	}

	res := newResult()
	clients := loadClients(workload)
	var setups, rss, p50, tail, rate, all []float64
	var tailP float64
	for r := range sc.rounds {
		t0 := time.Now()
		srv, err := start(snapDir)
		if err != nil {
			return nil, err
		}
		err = setUp(ctx, srv.URL(), pl.spec, warm, warmExp, quotient)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			srv.Stop()
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		seq := pl.seq[r*len(pl.seq)/sc.rounds : (r+1)*len(pl.seq)/sc.rounds]
		samples, verdictOK := drive(ctx, srv.URL(), pl, seq, clients, func(id int, body []byte) error {
			return exp.verify(id, quotient, body)
		})
		peak, rssErr := srv.PeakRSSMiB()
		if err := srv.Stop(); err != nil {
			return nil, fmt.Errorf("stopping hpld: %w", err)
		}
		if rssErr != nil {
			return nil, rssErr
		}
		rss = append(rss, peak)
		for i, s := range samples {
			res.Attempted++
			if err := verdictOK(i); err != nil {
				res.fail(fmt.Errorf("%s request %d: %w", s.path, i, err))
			}
			all = append(all, s.lat.Seconds())
		}
		w50, wt, wr, wp := windows(samples, pl.batch, windowsPerRound)
		p50, tail, rate, tailP = append(p50, w50...), append(tail, wt...), append(rate, wr...), wp
	}
	res.set("setup_s", stats.Median(setups), "s")
	res.set("latency_p50_ms", 1000*stats.Median(p50), "ms")
	res.set("latency_tail_ms", 1000*stats.Median(tail), "ms")
	res.set("throughput_per_s", stats.Median(rate), "1/s")
	res.set("peak_rss_mib", stats.Median(rss), "MiB")
	res.note("%d requests x %d formulas in %d rounds of a fresh daemon, %d closed-loop clients, %d windows; tail is p%g (p99.9 over all requests %.4f ms, not gated)",
		len(all), pl.batch, sc.rounds, clients, len(p50), tailP, 1000*stats.Percentile(all, 99.9))
	return res, nil
}

// loadClients is the number of closed-loop clients. serve-hot uses one
// per CPU. serve-fresh and serve-quotient use one: their requests hold
// the daemon for hundreds of microseconds or more (fresh formulas also
// serialize on the evaluator's lock), so a second client mostly waits
// behind the first, and on the 2-CPU reference machine that doubled
// their run-to-run spread.
func loadClients(workload string) int {
	if workload == serveHot {
		return runtime.NumCPU()
	}
	return 1
}

// warmRequests are what set-up sends after the universe is resident:
// serve-hot and serve-quotient warm the evaluator's memo with every
// distinct request of the plan; serve-fresh builds the partitions of
// every non-empty process set and the transition graph, leaving its
// never-seen formulas nothing to reuse but atoms.
func warmRequests(workload string, pl plan) []request {
	if workload != serveFresh {
		return pl.reqs
	}
	var fs []string
	for _, set := range procSubsets(pl.spec.Procs) {
		fs = append(fs, "K{"+set+"} true")
	}
	return []request{newRequest(pl.spec, false, append(fs, "EX true"))}
}

// setUp makes a freshly started daemon ready to serve: it loads the
// universe (from the snapshot) and sends the warm requests, checking
// their verdicts.
func setUp(ctx context.Context, base string, spec hpl.UniverseSpec, warm []request, exp expected, quotient bool) error {
	st, err := universeStats(ctx, base, spec)
	if err != nil {
		return err
	}
	if st.Source != service.SourceSnapshot {
		return fmt.Errorf("universe materialized by %q, want %q", st.Source, service.SourceSnapshot)
	}
	for i, r := range warm {
		status, body, err := post(ctx, http.DefaultClient, base+r.path(), r.body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s answered %d: %s", r.path(), status, body)
		}
		if err := exp.verify(i, quotient, body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func universeStats(ctx context.Context, base string, spec hpl.UniverseSpec) (service.StatsResponse, error) {
	return (&service.Client{Base: base}).UniverseStats(ctx, spec)
}

// post sends one JSON body and reads the whole response into buf
// (allocating when buf is nil).
func post(ctx context.Context, cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// sample is one completed request of a closed-loop run.
type sample struct {
	// end is when the reply was fully read, from the start of the run;
	// lat how long the request took.
	end, lat time.Duration
	path     string
}

// drive sends the requests seq names from clients closed-loop clients:
// client c sends requests c, c+clients, …, each after the previous one's
// reply is read. Replies are checked after the run, not during it: the
// loop only compares each body with the first body its client saw for
// the same distinct request. It returns the samples in completion order
// and a function reporting whether sample i's reply was correct.
func drive(ctx context.Context, base string, pl plan, seq []int32, clients int, verify func(id int, body []byte) error) ([]sample, func(i int) error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	tr.DisableCompression = true
	cl := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	// reply records how one request ended: a transport error, a status,
	// or a body that differs from the client's first body for the same
	// distinct request.
	type reply struct {
		id     int32
		err    error
		status int
		odd    []byte
	}
	type clientLog struct {
		samples []sample
		replies []reply
		first   map[int32][]byte
	}
	logs := make([]clientLog, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			lg.first = map[int32][]byte{}
			var buf bytes.Buffer
			for i := c; i < len(seq); i += clients {
				id := seq[i]
				r := pl.reqs[id]
				t0 := time.Now()
				status, body, err := post(ctx, cl, base+r.path(), r.body, &buf)
				t1 := time.Now()
				lg.samples = append(lg.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), path: r.path()})
				rp := reply{id: id, err: err, status: status}
				if err == nil && status == http.StatusOK {
					if first, ok := lg.first[id]; !ok {
						lg.first[id] = bytes.Clone(body)
					} else if !bytes.Equal(first, body) {
						rp.odd = bytes.Clone(body)
					}
				} else if err == nil {
					rp.odd = bytes.Clone(body)
				}
				lg.replies = append(lg.replies, rp)
			}
		}()
	}
	wg.Wait()

	// Merge in completion order, keeping each sample's reply.
	type entry struct {
		s  sample
		rp reply
		c  int
	}
	var all []entry
	for c, lg := range logs {
		for i, s := range lg.samples {
			all = append(all, entry{s, lg.replies[i], c})
		}
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.s.end, b.s.end) })
	samples := make([]sample, len(all))
	for i, e := range all {
		samples[i] = e.s
	}
	firstOK := map[[2]int32]error{} // (client, id) → verdict of that client's first body
	return samples, func(i int) error {
		e := all[i]
		switch {
		case e.rp.err != nil:
			return e.rp.err
		case e.rp.status != http.StatusOK:
			return fmt.Errorf("status %d: %s", e.rp.status, strings.TrimSpace(string(e.rp.odd)))
		case e.rp.odd != nil:
			return verify(int(e.rp.id), e.rp.odd)
		}
		key := [2]int32{int32(e.c), e.rp.id}
		err, ok := firstOK[key]
		if !ok {
			err = verify(int(e.rp.id), logs[e.c].first[e.rp.id])
			firstOK[key] = err
		}
		return err
	}
}

// windows cuts samples (in completion order) into k windows of equal
// request counts and returns each window's latency median and tail in
// seconds and its rate of formula verdicts per second. The tail is the
// highest percentile up to p99 with at least ten of a window's samples
// beyond it; tailP reports which.
func windows(samples []sample, batch, k int) (p50, tail, rate []float64, tailP float64) {
	k = min(k, len(samples))
	var prevEnd time.Duration
	for w := range k {
		win := samples[w*len(samples)/k : (w+1)*len(samples)/k]
		lat := make([]float64, len(win))
		for i, s := range win {
			lat[i] = s.lat.Seconds()
		}
		tailP = min(99, stats.TailPercentile(len(lat), 10))
		p50 = append(p50, stats.Percentile(lat, 50))
		tail = append(tail, stats.Percentile(lat, tailP))
		end := win[len(win)-1].end
		rate = append(rate, float64(len(win)*batch)/(end-prevEnd).Seconds())
		prevEnd = end
	}
	return p50, tail, rate, tailP
}
