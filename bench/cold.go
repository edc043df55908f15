package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"hpl"
	"hpl/bench/stats"
)

// mckCase is one mck invocation and the exact output a correct mck
// prints for it.
type mckCase struct {
	args     []string
	want     string
	wantExit int
}

// newMckCase asks the oracle for q's verdict over spec and renders the
// output mck prints for it: -valid for epistemic formulas, -temporal for
// temporal ones.
func newMckCase(o *oracle, q query) (mckCase, error) {
	spec := o.spec
	procs := make([]string, len(spec.Procs))
	for i, p := range spec.Procs {
		procs[i] = string(p)
	}
	c := mckCase{args: []string{"-procs", strings.Join(procs, ","),
		"-sends", strconv.Itoa(spec.MaxSends), "-events", strconv.Itoa(spec.MaxEvents)}}
	v, err := o.verdict(q.text, q.temporal)
	if err != nil {
		return c, fmt.Errorf("oracle rejects %q: %w", q.text, err)
	}
	switch {
	case q.temporal && *v.AtInit:
		c.args = append(c.args, "-temporal", q.text)
		c.want = fmt.Sprintf("HOLDS at the initial computation (holds at %d / %d members)\n", v.Holding, v.Total)
	case q.temporal:
		c.args = append(c.args, "-temporal", q.text)
		c.want = fmt.Sprintf("DOES NOT HOLD at the initial computation (holds at %d / %d members)\n", v.Holding, v.Total)
		c.wantExit = 1
	case v.Valid:
		c.args = append(c.args, "-valid", q.text)
		c.want = fmt.Sprintf("VALID over %d computations\n", v.Total)
	default:
		c.args = append(c.args, "-valid", q.text)
		c.want = fmt.Sprintf("NOT VALID: fails at computation %d:\n  %s\n",
			v.FirstFailure, strings.ReplaceAll(v.Witness, "\n", "\n  "))
		c.wantExit = 1
	}
	return c, nil
}

func (c mckCase) check(r mckRun) error {
	if r.stdout != c.want || r.exit != c.wantExit {
		return fmt.Errorf("mck %q: exit %d output %q, want exit %d output %q", c.args, r.exit, r.stdout, c.wantExit, c.want)
	}
	return nil
}

// coldSetups is how many times cold-check times its set-up; setup_s is
// the median.
const coldSetups = 31

// setupSpec is mck's default system (two processes, one send each, four
// events). Checking it costs little beyond starting mck, so its time is
// the fixed set-up every cold check pays before any real enumeration.
var setupSpec = hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}

// runColdCheck runs sc.checks sequential mck processes over the six
// cold-check formulas in seeded order, each formula equally often, and
// checks every verdict against the in-process oracle.
func runColdCheck(ctx context.Context, mck string, sc scale, seed int64) (*result, error) {
	small, err := newOracle(setupSpec)
	if err != nil {
		return nil, err
	}
	setupCase, err := newMckCase(small, query{text: `K{q} "sent(p,m)" -> "sent(p,m)"`})
	if err != nil {
		return nil, err
	}
	o, err := newOracle(sc.spec)
	if err != nil {
		return nil, err
	}
	var cases []mckCase
	for _, q := range coldFormulas(sc.spec.Procs) {
		c, err := newMckCase(o, q)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	order := make([]int, sc.checks)
	for i := range order {
		order[i] = i % len(cases)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	res := newResult()
	var setups []float64
	for range coldSetups {
		r, err := runMck(ctx, mck, setupCase.args...)
		if err != nil {
			return nil, err
		}
		if err := setupCase.check(r); err != nil {
			return nil, err
		}
		setups = append(setups, r.wall.Seconds())
	}

	var walls []float64
	peak := map[int][]float64{} // per formula: each run's peak RSS
	start := time.Now()
	for _, k := range order {
		r, err := runMck(ctx, mck, cases[k].args...)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if err := cases[k].check(r); err != nil {
			res.fail(err)
		}
		walls = append(walls, r.wall.Seconds())
		peak[k] = append(peak[k], r.maxRSSMiB)
	}
	elapsed := time.Since(start)

	// Peak memory is the heaviest formula's typical (median) peak, which
	// does not jump with the order the runs happened to land in.
	var rss float64
	for _, xs := range peak {
		rss = max(rss, stats.Median(xs))
	}
	tail := stats.TailPercentile(len(walls), 10)
	res.set("setup_s", stats.Median(setups), "s")
	res.set("latency_p50_ms", 1000*stats.Percentile(walls, 50), "ms")
	res.set("latency_tail_ms", 1000*stats.Percentile(walls, tail), "ms")
	res.set("throughput_per_s", float64(len(walls))/elapsed.Seconds(), "1/s")
	res.set("peak_rss_mib", rss, "MiB")
	res.note("%d cold mck checks of %d formulas over %d members; tail is p%g (%d samples beyond it)",
		len(walls), len(cases), o.u.Len(), tail, stats.Beyond(len(walls), tail))
	return res, nil
}
