package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hpl/bench/stats"
)

// benchSpec mirrors the parts of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchSpec(root string) (benchSpec, error) {
	var bs benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bs, err
	}
	return bs, json.Unmarshal(data, &bs)
}

// readResults collects every result line of a file of benchmark output,
// skipping everything else, and returns each metric's values in order.
func readResults(path string) (runs int, failed int, values map[string][]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	values = map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return 0, 0, nil, fmt.Errorf("%s: %w", path, err)
		}
		runs++
		failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	if runs == 0 {
		return 0, 0, nil, fmt.Errorf("%s holds no result lines", path)
	}
	return runs, failed, values, nil
}

// runCompare compares two sets of runs of one workload metric by
// metric. An end-to-end metric whose NEW median is worse than the OLD
// median by more than its bound is flagged, and the command exits 1.
// The Mann–Whitney p-value says whether the two sets differ at all; the
// spread is each set's interquartile range as a share of its median.
func runCompare(root, oldPath, newPath string, stdout, stderr io.Writer) int {
	bs, err := readBenchSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: reading BENCHMARK.json: %v\n", err)
		return 1
	}
	nOld, fOld, old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	nNew, fNew, cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "old: %d runs, %d failed operations; new: %d runs, %d failed operations\n", nOld, fOld, nNew, fNew)
	fmt.Fprintf(stdout, "%-34s %12s %12s %8s %8s %8s %7s  %s\n",
		"metric", "old median", "new median", "delta", "spread", "spread", "p", "verdict")

	type row struct {
		name, better string
		bound        float64
		gated        bool
	}
	var rows []row
	for _, m := range bs.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound, true})
	}
	for _, m := range bs.PerLayer {
		rows = append(rows, row{m.Name, m.Better, 0, false})
	}
	code := 0
	if fNew > fOld {
		fmt.Fprintln(stdout, "MORE FAILED OPERATIONS in new")
		code = 1
	}
	for _, r := range rows {
		a, b := old[r.name], cur[r.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		ma, mb := stats.Median(a), stats.Median(b)
		delta := mb/ma - 1
		_, p := stats.MannWhitney(a, b)
		verdict := "-"
		if r.gated {
			worse := delta
			if r.better == "higher" {
				worse = -delta
			}
			verdict = "ok"
			if worse > r.bound {
				verdict = fmt.Sprintf("WORSE by more than %.0f%%", 100*r.bound)
				code = 1
			}
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %7.3f  %s\n",
			r.name, ma, mb, 100*delta, 100*spreadOf(a), 100*spreadOf(b), p, verdict)
	}
	return code
}

// spreadOf is the interquartile range over the median, 0 for a single
// run.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return stats.Spread(xs)
}
