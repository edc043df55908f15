// Command mck is an epistemic model checker for small free systems: it
// enumerates the computations of the system, then evaluates a formula
// at each member (or reports validity).
//
// Usage:
//
//	mck [-procs p,q] [-sends 1] [-events 4] [-par 4] [-timeout 30s]
//	    [-faults crash,drop:1] [-progress] [-trace] [-valid] [-temporal]
//	    [-server http://host:port] [-retries 3]
//	    'K{q} "sent(p,m)"'
//
// The vocabulary is the spec's standard atom set: "sent(<proc>,m)",
// "received(<proc>,m)" and the any-process closures for every process,
// plus "quiescent"; with -faults also "crashed(<proc>)", "anyCrashed",
// "dropped(m)" and "duplicated(m)" as the model enables them. The
// formula grammar is documented in internal/logic. -faults wraps the
// system in an adversarial channel model (internal/faults) before
// enumerating: processes may crash-stop, and per-process budgets of
// message drops and duplications extend the universe with every way the
// channel could misbehave. -par enumerates the universe on several
// workers, -timeout aborts enumeration cleanly, and -progress reports
// engine snapshots on stderr. -trace prints a per-phase time breakdown
// of the build and evaluation (frontier expansion, canonicalization,
// partition and transition construction, symmetry filtering, atom
// evaluation) on stderr after the verdict. -temporal switches to
// model-checking semantics: the formula — which may use the CTL
// operators EX, AX, EF, AF, EG, AG, E[· U ·], A[· U ·] and the past
// operators EY, AY, Once, Hist — is decided at the initial (null)
// computation over the prefix-extension transition graph, and the
// exit status reports the verdict.
//
// mck parses the formula before it builds anything, and when the
// formula cannot tell apart two interleavings of one partial order it
// enumerates only the commutation quotient: one member per [D]-class
// (computations that project equally on every process), weighted by
// the class's number of interleavings. This is sound because the paper
// requires every predicate to be constant on [D]-classes — every atom
// here is a count over the computation's events — and K, Sure and C
// quantify over [P]-classes, which are unions of [D]-classes, while
// [D]-equivalent computations have the same one-event extensions up to
// [D], so EX, EU, AU and the operators built from them agree on them
// too. The counts printed are the full universe's, so the output and
// the exit status are those of a full check. Past operators (EY, AY,
// Once, Hist) read the prefixes of one interleaving and are refused
// on the quotient — except Once over an atom such as "received(q,m)",
// which only ever turns true and so equals the atom — and formulas
// with them are checked on the full universe. So is the first failure
// of a -valid formula that is not valid: it is named by its index in
// the full universe and printed as its own interleaving. When the full
// universe exceeds mck's cap of 200,000 computations, the quotient's
// failing member is printed instead, without an index: it is a
// computation of the system, and the formula fails throughout its
// [D]-class. -par defaults to the number of CPUs Go may use.
//
// -server switches mck into thin-client mode: instead of enumerating
// locally, the query is forwarded to a running hpld daemon, which keeps
// the universe hot across invocations — the first query pays the build,
// every later one (from any client) reuses the cached universe and its
// memoized truth vectors. Output and exit statuses are identical to
// local mode; -par and -progress are meaningless remotely and ignored,
// -timeout bounds the request. -retries N resends transiently failed
// requests (connection errors, 503s — a daemon still building, a
// request deadline) up to N attempts with exponential backoff; verdict
// errors (4xx) are never retried.
//
// Examples:
//
//	mck -valid 'K{q} "sent(p,m)" -> "sent(p,m)"'   # fact 4: knowledge is true
//	mck -temporal 'AG (K{q} "sent(p,m)" -> Once "received(q,m)")'  # gain theorem
//	mck -temporal 'EF K{q} "sent(p,m)"'            # q can come to know b
//	mck -faults crash -temporal 'AG ("anyCrashed" -> AG "anyCrashed")'  # crash-stop is absorbing
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"hpl"
	"hpl/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.String("procs", "p,q", "comma-separated process names")
	sends := fs.Int("sends", 1, "max sends per process")
	events := fs.Int("events", 4, "max events per computation")
	par := fs.Int("par", runtime.GOMAXPROCS(0), "enumeration worker count")
	timeout := fs.Duration("timeout", 0, "abort enumeration after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "report enumeration progress on stderr")
	traceFlag := fs.Bool("trace", false, "print a per-phase build/eval time breakdown on stderr")
	valid := fs.Bool("valid", false, "report only whether the formula holds at every computation")
	temporal := fs.Bool("temporal", false, "model-check the formula at the initial (null) computation over the prefix-extension transition graph")
	server := fs.String("server", "", "forward the query to a running hpld daemon at this base URL instead of enumerating locally")
	faults := fs.String("faults", "", "adversarial channel model: comma-separated \"crash\", \"crash:<proc>\", \"drop:<n>\", \"dup:<n>\" (empty = reliable)")
	retries := fs.Int("retries", 1, "with -server: total attempts per request; transport errors and 503s are retried with backoff")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mck [flags] '<formula>'")
		fs.PrintDefaults()
		return 2
	}

	var ids []hpl.ProcID
	for _, s := range strings.Split(*procs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			ids = append(ids, hpl.ProcID(s))
		}
	}
	spec := hpl.UniverseSpec{
		Procs:     ids,
		MaxSends:  *sends,
		MaxEvents: *events,
		Faults:    *faults,
		Cap:       200000,
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "mck: %v\n", err)
		return 2
	}

	if *server != "" {
		return runRemote(*server, spec, fs.Arg(0), *valid, *temporal, *timeout, *retries, stdout, stderr)
	}

	opts := []hpl.EnumOption{hpl.WithParallelism(*par)}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts = append(opts, hpl.WithContext(ctx))
	}
	if *progress {
		opts = append(opts, hpl.WithProgress(func(p hpl.EnumProgress) {
			fmt.Fprintf(stderr, "mck: explored %d computations (frontier %d)\n", p.Explored, p.Frontier)
		}))
	}
	if *traceFlag {
		tr := hpl.NewTrace()
		opts = append(opts, hpl.WithTrace(tr))
		// Deferred so the breakdown also covers phases that run lazily
		// during evaluation (partition and transition construction).
		defer func() {
			fmt.Fprintf(stderr, "mck: phase breakdown:\n%s", tr.String())
		}()
	}

	// The formula decides which universe to build: the commutation
	// quotient when it is admissible there, the full universe otherwise.
	vocab := hpl.NewVocabulary(spec.Predicates()...)
	f, err := hpl.ParseFormula(fs.Arg(0), vocab)
	if err != nil {
		fmt.Fprintf(stderr, "mck: %v\n", err)
		fmt.Fprintf(stderr, "available atoms: %s\n", atomList(vocab))
		return 1
	}
	quotient := hpl.ValidateCommuting(f) == nil
	ck, err := check(spec, opts, quotient)
	if err != nil {
		fmt.Fprintf(stderr, "mck: %v\n", err)
		return 1
	}

	if *temporal {
		rep := ck.CheckTemporal(f)
		if !rep.AtInit {
			fmt.Fprintf(stdout, "DOES NOT HOLD at the initial computation (holds at %d / %d members)\n",
				rep.FullHolding, rep.FullTotal)
			return 1
		}
		fmt.Fprintf(stdout, "HOLDS at the initial computation (holds at %d / %d members)\n",
			rep.FullHolding, rep.FullTotal)
		return 0
	}

	rep := ck.Check(f)
	if *valid {
		if rep.Valid() {
			fmt.Fprintf(stdout, "VALID over %d computations\n", rep.FullTotal)
			return 0
		}
		at := fmt.Sprintf("computation %d", rep.FirstFailure)
		witness := ck.Universe().At(rep.FirstFailure)
		if quotient {
			// The first failure is named by its index in the full
			// universe and its own interleaving, which only the full
			// universe has. Past the cap the quotient's failing
			// representative stands in: it is a computation of the
			// system, and the formula is constant on its [D]-class.
			full, err := check(spec, opts, false)
			switch {
			case err == nil:
				rep = full.Check(f)
				at = fmt.Sprintf("computation %d", rep.FirstFailure)
				witness = full.Universe().At(rep.FirstFailure)
			case errors.Is(err, hpl.ErrUniverseTooLarge):
				at = "this computation (the full universe exceeds the cap, so it has no index)"
			default:
				fmt.Fprintf(stderr, "mck: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "NOT VALID: fails at %s:\n%s\n", at, indent(witness.String()))
		return 1
	}
	fmt.Fprintf(stdout, "%s\nholds at %d / %d computations\n",
		hpl.PrintFormula(rep.Formula), rep.FullHolding, rep.FullTotal)
	return 0
}

// check builds the spec's system — possibly fault-wrapped — as the
// daemon would, as its commutation quotient when quotient is set.
func check(spec hpl.UniverseSpec, opts []hpl.EnumOption, quotient bool) (*hpl.Checker, error) {
	if quotient {
		opts = append(slices.Clip(opts), hpl.WithCommutation())
	}
	return hpl.CheckSpec(spec, opts...)
}

// runRemote forwards one query to an hpld daemon and renders the result
// in the same shapes (and with the same exit statuses) as local mode.
func runRemote(base string, spec hpl.UniverseSpec, formula string, valid, temporal bool, timeout time.Duration, retries int, stdout, stderr io.Writer) int {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cl := &service.Client{Base: base}
	if retries > 1 {
		cl.Retry = &service.RetryPolicy{MaxAttempts: retries}
	}

	var resp service.CheckResponse
	var err error
	if temporal {
		resp, err = cl.CheckTemporal(ctx, spec, formula)
	} else {
		resp, err = cl.Check(ctx, spec, formula)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mck: %s: %v\n", base, err)
		return 1
	}
	if len(resp.Results) != 1 {
		fmt.Fprintf(stderr, "mck: %s returned %d results for 1 formula\n", base, len(resp.Results))
		return 1
	}
	res := resp.Results[0]
	if res.Error != "" {
		fmt.Fprintf(stderr, "mck: %s\n", res.Error)
		return 1
	}

	if temporal {
		verdict := res.AtInit != nil && *res.AtInit
		if !verdict {
			fmt.Fprintf(stdout, "DOES NOT HOLD at the initial computation (holds at %d / %d members)\n",
				res.Holding, res.Total)
			return 1
		}
		fmt.Fprintf(stdout, "HOLDS at the initial computation (holds at %d / %d members)\n",
			res.Holding, res.Total)
		return 0
	}
	if valid {
		if !res.Valid {
			fmt.Fprintf(stdout, "NOT VALID: fails at computation %d:\n%s\n",
				res.FirstFailure, indent(res.Witness))
			return 1
		}
		fmt.Fprintf(stdout, "VALID over %d computations\n", res.Total)
		return 0
	}
	fmt.Fprintf(stdout, "%s\nholds at %d / %d computations\n", res.Formula, res.Holding, res.Total)
	return 0
}

func atomList(vocab hpl.Vocabulary) string {
	names := make([]string, 0, len(vocab))
	for n := range vocab {
		names = append(names, `"`+n+`"`)
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
