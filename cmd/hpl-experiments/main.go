// Command hpl-experiments regenerates every figure and experiment table
// of the reproduction (FIG-3-1 … EXP-FLT, in the order of the registry
// in internal/experiments) and prints them to stdout. testdata/all.golden
// records a run with no flags.
//
// Usage:
//
//	hpl-experiments [-only ID] [-par 4] [-timeout 2m]
//
// With -only, runs a single experiment by its identifier (e.g.
// -only EXP-A3). -par runs independent experiments concurrently (output
// order is unchanged); -timeout aborts a run cleanly, printing the
// tables completed so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpl/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpl-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment by id (e.g. EXP-A3)")
	par := fs.Int("par", 1, "run up to this many experiments concurrently")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	tables, err := experiments.AllWith(ctx, *par)
	matched := false
	for _, t := range tables {
		if *only != "" && !strings.EqualFold(*only, t.ID) {
			continue
		}
		matched = true
		fmt.Fprintln(stdout, t.Render())
	}
	if err != nil {
		fmt.Fprintf(stderr, "hpl-experiments: %v\n", err)
		return 1
	}
	if !matched {
		fmt.Fprintf(stderr, "hpl-experiments: no experiment with id %q\n", *only)
		return 1
	}
	fmt.Fprintln(stdout, "all experiments completed with 0 violations")
	return 0
}
