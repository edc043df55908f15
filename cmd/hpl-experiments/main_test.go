package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runWith(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSingleExperiment(t *testing.T) {
	code, out, _ := runWith(t, "-only", "FIG-3-1")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "FIG-3-1") || strings.Contains(out, "EXP-A3") {
		t.Errorf("filtering broken:\n%s", out)
	}
	if !strings.Contains(out, "0 violations") {
		t.Errorf("missing summary line")
	}
}

func TestSingleExperimentCaseInsensitive(t *testing.T) {
	code, out, _ := runWith(t, "-only", "exp-tok")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "EXP-TOK") {
		t.Errorf("output:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := runWith(t, "-only", "EXP-NOPE")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "no experiment") {
		t.Errorf("stderr:\n%s", errOut)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runWith(t, "-bogus"); code != 2 {
		t.Errorf("exit = %d", code)
	}
}

// TestAllExperiments compares a run with no flags byte for byte with
// testdata/all.golden, so any changed table fails, not only a violated
// claim. After an intended change, regenerate the golden from the
// repository root with
//
//	go run ./cmd/hpl-experiments > cmd/hpl-experiments/testdata/all.golden
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full run is slow in -short mode")
	}
	code, out, _ := runWith(t)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out == string(golden) {
		return
	}
	got, want := strings.Split(out, "\n"), strings.Split(string(golden), "\n")
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("output differs from testdata/all.golden at line %d:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/all.golden %d", len(got), len(want))
}

func TestParallelRunKeepsOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full run is slow in -short mode")
	}
	code, out, _ := runWith(t, "-par", "4")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	last := -1
	for _, id := range []string{"FIG-3-1", "EXP-T1", "EXP-A3", "EXP-GEN"} {
		i := strings.Index(out, "== "+id)
		if i < 0 {
			t.Fatalf("output missing %s", id)
		}
		if i < last {
			t.Errorf("%s printed out of order", id)
		}
		last = i
	}
}

func TestTimeoutPrintsPartialRun(t *testing.T) {
	code, _, errOut := runWith(t, "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(errOut, "deadline") {
		t.Errorf("stderr:\n%s", errOut)
	}
}
