// Command bench is the repository's benchmark: it measures a cold mck
// check and warm hpld serving end to end, and, in a separate -trace run,
// the layers underneath, from outside the program.
//
// Usage (from the bench directory, or through run.sh from the repository
// root):
//
//	go run . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	go run . -compare OLD NEW
//
// -workload is cold-check, serve-hot, serve-fresh or serve-quotient;
// empty runs all four in turn. Inputs derive from -seed alone, and
// -seconds sizes each run's fixed amount of work. Every verdict is
// checked against an in-process hpl.CheckSpec session; a wrong one makes
// the run fail. Each workload ends with one JSON line: its metrics with
// their units, and how many operations were attempted and failed.
//
// -compare reads two files of such result lines (several runs of one
// workload each) and compares every metric: medians, spreads, the
// Mann–Whitney U test, and the end-to-end bounds from BENCHMARK.json.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-check, serve-hot, serve-fresh or serve-quotient (empty = all, in turn)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "size of a run's fixed work, in seconds of measurement on the reference machine")
	traceRun := fs.Int("trace", 0, "1 = replay the workload in-process layer by layer and report per-layer metrics")
	compare := fs.Bool("compare", false, "compare two files of result lines: -compare OLD NEW")
	if err := fs.Parse(boolTrace(args)); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD NEW")
			return 2
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		root:       root,
		binDir:     filepath.Join(root, ".bench_build", "bin"),
		outDir:     filepath.Join(root, "bench", "out"),
		scratchDir: filepath.Join(root, ".bench_build"),
		scale:      scaleFor(*seconds),
		seed:       *seed,
		trace:      *traceRun == 1,
		stdout:     stdout,
	}
	for _, d := range []string{cfg.outDir, cfg.scratchDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !cfg.trace {
		if err := buildBinaries(root, cfg.binDir); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, w := range names {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		if err := res.print(stdout, w); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// boolTrace lets -trace stand alone (meaning 1) as well as take an
// explicit value, as in "--trace 0".
func boolTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a != "-trace" && a != "--trace" {
			out = append(out, a)
			continue
		}
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
		} else {
			out = append(out, a+"=1")
		}
	}
	return out
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory whose go.mod declares module hpl.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module hpl\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a go.mod declaring module hpl) at or above the working directory")
		}
		dir = parent
	}
}

// config is what one invocation of the benchmark runs with.
type config struct {
	// root is the repository; binDir holds the built mck and hpld;
	// outDir receives traces and daemon logs; scratchDir each run's
	// snapshot directory.
	root, binDir, outDir, scratchDir string
	scale                            scale
	seed                             int64
	trace                            bool
	stdout                           io.Writer
	// start overrides how serve workloads start their daemon (tests use
	// an in-process server); nil starts the hpld binary.
	start startFunc
}

func runWorkload(ctx context.Context, cfg config, w string) (*result, error) {
	if cfg.trace {
		return runTrace(ctx, w, cfg.scale, cfg.seed, cfg.outDir, cfg.stdout)
	}
	if w == coldCheck {
		return runColdCheck(ctx, filepath.Join(cfg.binDir, "mck"), cfg.scale, cfg.seed)
	}
	workDir, err := os.MkdirTemp(cfg.scratchDir, w+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	start := cfg.start
	if start == nil {
		logPath := filepath.Join(cfg.outDir, w+".hpld.log")
		os.Remove(logPath)
		start = hpldStarter(filepath.Join(cfg.binDir, "hpld"), logPath)
	}
	return runServe(ctx, w, start, cfg.scale, cfg.seed, workDir)
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the JSON line the benchmark prints last, plus
// notes and the first failures for the human reader.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
	errs  []error
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail counts a failed operation, keeping the first few errors.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report, then the result as the last
// line. A run is correct when it attempted something and nothing failed.
func (r *result) print(w io.Writer, workload string) error {
	r.Correct = r.Attempted > 0 && r.Failed == 0
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed (fail ratio %.4g)\n",
		workload, r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)))
	for _, err := range r.errs {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
