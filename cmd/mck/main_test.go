package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"hpl"
	"hpl/internal/service"
)

func runWith(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestValidFormula(t *testing.T) {
	code, out, _ := runWith(t, "-valid", `K{q} "sent(p,m)" -> "sent(p,m)"`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "VALID over") {
		t.Errorf("output:\n%s", out)
	}
}

func TestInvalidFormulaReportsCounterexample(t *testing.T) {
	code, out, _ := runWith(t, "-valid", `"sent(p,m)"`)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "NOT VALID") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCountMode(t *testing.T) {
	code, out, _ := runWith(t, `K{q} "sent(p,m)"`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "holds at") {
		t.Errorf("output:\n%s", out)
	}
}

func TestTemporalMode(t *testing.T) {
	// The gain theorem holds at the initial computation…
	code, out, _ := runWith(t, "-temporal", `AG (K{q} "sent(p,m)" -> Once "received(q,m)")`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "HOLDS at the initial computation") {
		t.Errorf("output:\n%s", out)
	}
	// …learning is reachable but not yet attained…
	code, out, _ = runWith(t, "-temporal", `!K{q} "sent(p,m)" & EF K{q} "sent(p,m)"`)
	if code != 0 || !strings.Contains(out, "HOLDS") {
		t.Fatalf("exit = %d, output:\n%s", code, out)
	}
	// …and a property false at init exits non-zero.
	code, out, _ = runWith(t, "-temporal", `K{q} "sent(p,m)"`)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "DOES NOT HOLD") {
		t.Errorf("output:\n%s", out)
	}
}

func TestParseErrorListsAtoms(t *testing.T) {
	code, _, errOut := runWith(t, "nosuchatom")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "available atoms") {
		t.Errorf("stderr:\n%s", errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runWith(t); code != 2 {
		t.Errorf("no-arg exit = %d", code)
	}
	if code, _, _ := runWith(t, "-nosuchflag", "true"); code != 2 {
		t.Errorf("bad-flag exit = %d", code)
	}
}

func TestCustomSystem(t *testing.T) {
	code, out, _ := runWith(t, "-procs", "a,b,c", "-sends", "1", "-events", "2",
		`K{a} "sent(a,m)" | !K{a} "sent(a,m)"`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "holds at") {
		t.Errorf("output:\n%s", out)
	}
}

func TestEnumerationTooLarge(t *testing.T) {
	code, _, errOut := runWith(t, "-procs", "a,b,c,d", "-sends", "3", "-events", "9", "true")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "mck:") {
		t.Errorf("stderr:\n%s", errOut)
	}
}

func TestParallelEnumerationAgrees(t *testing.T) {
	code, seq, _ := runWith(t, "-valid", `K{q} "sent(p,m)" -> "sent(p,m)"`)
	if code != 0 {
		t.Fatalf("sequential exit = %d", code)
	}
	code, par, _ := runWith(t, "-par", "4", "-valid", `K{q} "sent(p,m)" -> "sent(p,m)"`)
	if code != 0 {
		t.Fatalf("parallel exit = %d", code)
	}
	if seq != par {
		t.Errorf("parallel output differs:\n%s\nvs\n%s", seq, par)
	}
}

func TestTimeoutAbortsEnumeration(t *testing.T) {
	code, _, errOut := runWith(t, "-procs", "a,b,c,d", "-sends", "3", "-events", "12",
		"-timeout", "1ns", "true")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "mck:") || !strings.Contains(errOut, "deadline") {
		t.Errorf("stderr:\n%s", errOut)
	}
}

// TestServerMode drives the thin-client mode against an in-process
// hpld: epistemic and temporal queries with local-mode output shapes
// and exit statuses, all sharing one hot universe on the server.
func TestServerMode(t *testing.T) {
	ts := httptest.NewServer(service.NewServer(service.NewRegistry(service.Config{})))
	defer ts.Close()

	cases := []struct {
		name string
		args []string
		exit int
		want string
	}{
		{"valid", []string{"-server", ts.URL, "-valid", `K{q} "sent(p,m)" -> "sent(p,m)"`}, 0, "VALID over"},
		{"invalid-with-witness", []string{"-server", ts.URL, "-valid", `K{q} "sent(p,m)"`}, 1, "NOT VALID"},
		{"temporal-gain", []string{"-server", ts.URL, "-temporal", `AG (K{q} "sent(p,m)" -> Once "received(q,m)")`}, 0, "HOLDS at the initial computation"},
		{"temporal-false", []string{"-server", ts.URL, "-temporal", `K{q} "sent(p,m)"`}, 1, "DOES NOT HOLD"},
		{"count", []string{"-server", ts.URL, `K{q} "sent(p,m)"`}, 0, "holds at"},
		{"parse-error", []string{"-server", ts.URL, `K{q "oops`}, 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runWith(t, tc.args...)
			if code != tc.exit {
				t.Fatalf("exit %d want %d\nstdout: %s\nstderr: %s", code, tc.exit, out, errOut)
			}
			if tc.want != "" && !strings.Contains(out, tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, out)
			}
		})
	}

	// All six queries share one spec, so the daemon built exactly one
	// universe and served the rest from cache.
	h, err := (&service.Client{Base: ts.URL}).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Builds != 1 || h.Universes != 1 {
		t.Errorf("thin client did not share the hot universe: %+v", h)
	}
}

// TestServerModeMatchesLocal checks the remote and local paths agree
// verdict-for-verdict on the same queries.
func TestServerModeMatchesLocal(t *testing.T) {
	ts := httptest.NewServer(service.NewServer(service.NewRegistry(service.Config{})))
	defer ts.Close()
	for _, q := range []string{
		`K{q} "sent(p,m)"`,
		`K{q} "sent(p,m)" -> "sent(p,m)"`,
		`"received(q,m)" -> Once "received(q,m)"`,
	} {
		_, local, _ := runWith(t, q)
		_, remote, _ := runWith(t, "-server", ts.URL, q)
		// Both end with "holds at N / M computations"; the counts must agree.
		li, ri := strings.Index(local, "holds at"), strings.Index(remote, "holds at")
		if li < 0 || ri < 0 || local[li:] != remote[ri:] {
			t.Errorf("local and remote disagree on %s:\nlocal:  %s\nremote: %s", q, local, remote)
		}
	}
}

// TestFaultsFlag covers -faults in both modes: the adversarial model
// extends the vocabulary and the universe, bad grammar is a usage
// error, and the local and remote verdicts agree on fault formulas.
func TestFaultsFlag(t *testing.T) {
	code, out, _ := runWith(t, "-faults", "crash", "-temporal",
		`AG ("anyCrashed" -> AG "anyCrashed")`)
	if code != 0 || !strings.Contains(out, "HOLDS at the initial computation") {
		t.Fatalf("crash-stop absorption: exit %d, output:\n%s", code, out)
	}
	code, out, _ = runWith(t, "-faults", "crash,drop:1", "-valid", `"crashed(q)" -> "anyCrashed"`)
	if code != 0 || !strings.Contains(out, "VALID over") {
		t.Fatalf("fault atoms under crash,drop:1: exit %d, output:\n%s", code, out)
	}
	if code, _, errOut := runWith(t, "-faults", "lossy", `"quiescent"`); code != 2 ||
		!strings.Contains(errOut, "bad faults field") {
		t.Fatalf("bad grammar: exit %d, stderr:\n%s", code, errOut)
	}
	if code, _, errOut := runWith(t, "-faults", "crash:z", `"quiescent"`); code != 2 ||
		!strings.Contains(errOut, "unknown process") {
		t.Fatalf("unknown crash target: exit %d, stderr:\n%s", code, errOut)
	}

	ts := httptest.NewServer(service.NewServer(service.NewRegistry(service.Config{})))
	defer ts.Close()
	for _, q := range []string{
		`"crashed(q)" -> "anyCrashed"`,
		`K{p} "crashed(q)"`,
	} {
		_, local, _ := runWith(t, "-faults", "crash", q)
		_, remote, _ := runWith(t, "-server", ts.URL, "-faults", "crash", q)
		li, ri := strings.Index(local, "holds at"), strings.Index(remote, "holds at")
		if li < 0 || ri < 0 || local[li:] != remote[ri:] {
			t.Errorf("local and remote disagree on %s:\nlocal:  %s\nremote: %s", q, local, remote)
		}
	}
}

// TestServerModeUnreachable checks the error path when no daemon listens.
func TestServerModeUnreachable(t *testing.T) {
	code, _, errOut := runWith(t, "-server", "http://127.0.0.1:1", `"sent(p,m)"`)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "mck:") {
		t.Errorf("stderr:\n%s", errOut)
	}
}

func TestProgressFlag(t *testing.T) {
	code, _, errOut := runWith(t, "-progress", `K{q} "sent(p,m)"`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "explored") {
		t.Errorf("stderr missing progress lines:\n%s", errOut)
	}
}

// fullOutput is what mck printed before it checked admissible formulas
// on the commutation quotient: the verdict on the full universe, with
// its counts and, for a -valid failure, its first failing member.
func fullOutput(t *testing.T, spec hpl.UniverseSpec, mode, formula string) (int, string) {
	t.Helper()
	ck, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ck.Parse(formula)
	if err != nil {
		t.Fatal(err)
	}
	switch rep := ck.CheckTemporal(f); {
	case mode == "-temporal" && rep.AtInit:
		return 0, fmt.Sprintf("HOLDS at the initial computation (holds at %d / %d members)\n", rep.Holding, rep.Total)
	case mode == "-temporal":
		return 1, fmt.Sprintf("DOES NOT HOLD at the initial computation (holds at %d / %d members)\n", rep.Holding, rep.Total)
	case mode == "-valid" && rep.Valid():
		return 0, fmt.Sprintf("VALID over %d computations\n", rep.Total)
	case mode == "-valid":
		return 1, fmt.Sprintf("NOT VALID: fails at computation %d:\n%s\n", rep.FirstFailure, indent(ck.Universe().At(rep.FirstFailure).String()))
	default:
		return 0, fmt.Sprintf("%s\nholds at %d / %d computations\n", hpl.PrintFormula(f), rep.Holding, rep.Total)
	}
}

// TestQuotientRouteMatchesFullUniverse checks that mck's output and exit
// status do not depend on the route it takes: admissible formulas,
// checked on the commutation quotient (valid, not valid — which rebuilds
// the full universe for its witness — temporal and counted), and
// refused ones, checked on the full universe, print exactly what a
// full-universe check prints, reliable and under faults.
func TestQuotientRouteMatchesFullUniverse(t *testing.T) {
	formulas := []struct{ mode, text string }{
		{"-valid", `K{r} K{p} "sent(p,m)" -> K{r} "sent(p,m)"`},
		{"-valid", `C ("anyReceived(m)" -> "anySent(m)")`},
		{"-valid", `K{r} "sent(p,m)" | "quiescent"`},
		{"-valid", `Hist "quiescent"`},
		{"-temporal", `AG (K{r} "sent(p,m)" -> Once "received(r,m)")`},
		{"-temporal", `A[!K{r} "sent(p,m)" U ("received(r,m)" | !EF K{r} "sent(p,m)")]`},
		{"-temporal", `EG !"quiescent"`},
		{"-temporal", `EF EY "sent(q,m)"`},
		{"", `K{p,q} "anySent(m)" & AX "quiescent"`},
	}
	for _, faults := range []string{"", "crash,drop:1"} {
		spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 5, Faults: faults}
		for _, f := range formulas {
			args := []string{"-procs", "p,q,r", "-events", "5", "-faults", faults}
			if f.mode != "" {
				args = append(args, f.mode)
			}
			code, out, errOut := runWith(t, append(args, f.text)...)
			wantCode, want := fullOutput(t, spec, f.mode, f.text)
			if code != wantCode || out != want {
				t.Errorf("faults %q, %s %s: exit %d, output\n%s\nwant exit %d, output\n%s\nstderr: %s", faults, f.mode, f.text, code, out, wantCode, want, errOut)
			}
		}
	}
}

// TestValidPastCapRendersQuotientWitness checks -valid past mck's cap
// of 200,000 computations: at seven events the full universe of p,q,r
// with two sends has 621,673 members, but its 18,624-member commutation
// quotient decides the formula, so mck reports NOT VALID with the
// quotient's failing representative as the witness instead of failing
// on the cap.
func TestValidPastCapRendersQuotientWitness(t *testing.T) {
	const formula = `K{q} "sent(p,m)"`
	quo, err := hpl.CheckSpec(hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 7}, hpl.WithCommutation())
	if err != nil {
		t.Fatal(err)
	}
	if n := quo.Universe().Len(); n != 18624 {
		t.Fatalf("quotient has %d members, want 18,624", n)
	}
	rep, err := quo.ParseAndCheck(formula)
	if err != nil || rep.Valid() {
		t.Fatalf("quotient check: valid %v, err %v", rep.Valid(), err)
	}
	want := "NOT VALID: fails at this computation (the full universe exceeds the cap, so it has no index):\n" +
		indent(quo.Universe().At(rep.FirstFailure).String()) + "\n"
	code, out, errOut := runWith(t, "-procs", "p,q,r", "-sends", "2", "-events", "7", "-valid", formula)
	if code != 1 || out != want || errOut != "" {
		t.Errorf("exit %d, output\n%s\nstderr: %s\nwant exit 1, output\n%s", code, out, errOut, want)
	}
}

// TestQuotientRouteIsTaken checks, through -progress, which universes
// mck builds: the quotient alone for an admissible formula, the quotient
// and then the full universe for an admissible -valid formula that is
// not valid, and the full universe alone for a refused formula.
func TestQuotientRouteIsTaken(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}
	full, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	quo, err := hpl.CheckSpec(spec, hpl.WithCommutation())
	if err != nil {
		t.Fatal(err)
	}
	q, n := quo.Universe().Len(), full.Universe().Len()
	if q >= n || n >= 1024 {
		t.Fatalf("quotient %d members, full universe %d: the routes must differ in size, with one progress line per build", q, n)
	}
	for _, tc := range []struct {
		args  []string
		built []int
	}{
		{[]string{"-valid", `K{q} "sent(p,m)" -> "sent(p,m)"`}, []int{q}},
		{[]string{"-temporal", `EF K{q} "sent(p,m)"`}, []int{q}},
		{[]string{"-valid", `K{q} "sent(p,m)"`}, []int{q, n}},
		{[]string{"-temporal", `EY "sent(p,m)"`}, []int{n}},
	} {
		_, _, errOut := runWith(t, append([]string{"-progress"}, tc.args...)...)
		var built []int
		for _, l := range strings.Split(strings.TrimSpace(errOut), "\n") {
			var k, f int
			if _, err := fmt.Sscanf(l, "mck: explored %d computations (frontier %d)", &k, &f); err != nil {
				t.Fatalf("%q: progress line %q: %v", tc.args, l, err)
			}
			built = append(built, k)
		}
		if fmt.Sprint(built) != fmt.Sprint(tc.built) {
			t.Errorf("%q: built universes of %v members, want %v", tc.args, built, tc.built)
		}
	}
}
