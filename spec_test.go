package hpl_test

import (
	"encoding/json"
	"errors"
	"testing"

	"hpl"
)

// TestSpecDigestCollides pins the cache-key semantics of satellite-grade
// importance for the service: semantically identical option sets must
// produce the same digest, so reordered processes, duplicate tags, and
// defaults spelled out or omitted all land on the same hot universe.
func TestSpecDigestCollides(t *testing.T) {
	base := hpl.UniverseSpec{
		Protocol: "free",
		Procs:    []hpl.ProcID{"p", "q", "r"},
		MaxSends: 2, MaxEvents: 6,
	}
	same := []hpl.UniverseSpec{
		{Procs: []hpl.ProcID{"r", "q", "p"}, MaxSends: 2, MaxEvents: 6}, // reordered procs, default protocol
		{Protocol: "FREE", Procs: []hpl.ProcID{"p", "q", "r", "q"}, MaxSends: 2, MaxEvents: 6},
		{Protocol: " free ", Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6,
			SendTags: []string{"m", "m"}, InternalTags: []string{"i"}}, // defaults explicit
		{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6, MaxInternal: -3, Cap: -1}, // clamped
		{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6, Symmetry: "NONE "},        // pre-symmetry digests stay stable
		{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6, Faults: " None "},         // pre-faults digests stay stable
	}
	want := base.Digest()
	for i, s := range same {
		if got := s.Digest(); got != want {
			t.Errorf("spec %d: digest %s != base %s, but specs are semantically identical\n%+v", i, got, want, s)
		}
	}
}

// TestSpecDigestSeparates checks that every semantic difference changes
// the digest.
func TestSpecDigestSeparates(t *testing.T) {
	base := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}
	diff := map[string]hpl.UniverseSpec{
		"procs":        {Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4},
		"maxSends":     {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 2, MaxEvents: 4},
		"maxInternal":  {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxInternal: 1, MaxEvents: 4},
		"maxEvents":    {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 5},
		"cap":          {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, Cap: 1000},
		"sendTags":     {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, SendTags: []string{"a", "b"}},
		"internalTags": {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, InternalTags: []string{"x"}},
		"symmetry":     {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, Symmetry: "full"},
		"faults":       {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, Faults: "crash"},
		"faultsDrop":   {Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, Faults: "drop:1"},
	}
	seen := map[string]string{base.Digest(): "base"}
	for name, s := range diff {
		d := s.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("specs %q and %q share digest %s but differ semantically", name, prev, d)
		}
		seen[d] = name
	}
	// Tag *sets* that differ only in ambiguous concatenation must still
	// separate (the encoding is length-prefixed).
	a := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, SendTags: []string{"ab", "c"}}
	b := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, SendTags: []string{"a", "bc"}}
	if a.Digest() == b.Digest() {
		t.Errorf("length-prefixing failed: {ab,c} and {a,bc} collide")
	}
}

// TestSpecDigestPinned pins one golden digest so accidental changes to
// the canonical encoding (which would strand every persisted cache key)
// show up as a test failure rather than silent cache misses.
func TestSpecDigestPinned(t *testing.T) {
	s := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}
	const want = "0b140f5ecc2b6625397204a293de4046aa2c4d94e9b45235cc4755c778f6508a"
	if got := s.Digest(); got != want {
		t.Errorf("canonical digest changed: got %s want %s\n(if intentional, update the pin — cached keys will all miss once)", got, want)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (hpl.UniverseSpec{Procs: []hpl.ProcID{"p"}}).Validate(); err != nil {
		t.Errorf("minimal spec invalid: %v", err)
	}
	if err := (hpl.UniverseSpec{}).Validate(); err == nil {
		t.Errorf("spec without processes validated")
	}
	if err := (hpl.UniverseSpec{Protocol: "chord", Procs: []hpl.ProcID{"p"}}).Validate(); err == nil {
		t.Errorf("unknown protocol validated")
	}
	if err := (hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, Symmetry: "Full "}).Validate(); err != nil {
		t.Errorf("full symmetry invalid: %v", err)
	}
	if err := (hpl.UniverseSpec{Procs: []hpl.ProcID{"p"}, Symmetry: "orbit"}).Validate(); err == nil {
		t.Errorf("unknown symmetry validated")
	}
	nine := hpl.UniverseSpec{Symmetry: "full"}
	for _, p := range []hpl.ProcID{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		nine.Procs = append(nine.Procs, p)
	}
	if err := nine.Validate(); err == nil {
		t.Errorf("full symmetry over nine processes validated (group order exceeds 8!)")
	}
}

// TestCheckSpecSymmetry runs the spec-to-session path with symmetry
// reduction: the quotient session must be smaller than the full one,
// account for every full member by orbit weight, and agree on symmetric
// formulas while rejecting asymmetric ones with a structured error.
func TestCheckSpecSymmetry(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 5}
	quoSpec := spec
	quoSpec.Symmetry = "full"
	if quoSpec.Digest() == spec.Digest() {
		t.Fatal("quotient spec must not share the full spec's cache key")
	}
	full, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	quo, err := hpl.CheckSpec(quoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !quo.Universe().IsQuotient() || quo.Universe().Len() >= full.Universe().Len() {
		t.Fatalf("quotient %d members vs full %d", quo.Universe().Len(), full.Universe().Len())
	}
	if quo.Universe().FullSize() != int64(full.Universe().Len()) {
		t.Fatalf("orbit sizes sum to %d, full universe has %d", quo.Universe().FullSize(), full.Universe().Len())
	}
	qrep, err := quo.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil {
		t.Fatal(err)
	}
	frep, err := full.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if qrep.Valid() != frep.Valid() || qrep.FullHolding != frep.FullHolding || qrep.FullTotal != frep.FullTotal {
		t.Fatalf("verdicts diverge: quotient %+v, full %+v", qrep, frep)
	}
	var asym *hpl.AsymmetryError
	if _, err := quo.ParseAndCheck(`K{q} "sent(p,m)"`); !errors.As(err, &asym) {
		t.Fatalf("asymmetric formula on quotient must fail with *AsymmetryError, got %v", err)
	}
	if _, err := quo.ParseAndCheckTemporal(`AG "sent(p,m)"`); !errors.As(err, &asym) {
		t.Fatalf("asymmetric temporal formula must fail with *AsymmetryError, got %v", err)
	}
	if _, err := full.ParseAndCheck(`K{q} "sent(p,m)"`); err != nil {
		t.Fatalf("full session must accept process-specific formulas: %v", err)
	}
}

// TestCheckSpec checks the spec-to-session path end to end: the universe
// matches a by-hand CheckProtocol enumeration and the standard atoms
// parse without extra Define calls.
func TestCheckSpec(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"q", "p"}, MaxSends: 1, MaxEvents: 4}
	ck, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := hpl.CheckProtocol(hpl.NewFree(hpl.FreeConfig{
		Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1,
	}), hpl.WithMaxEvents(4))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Universe().Len() != ref.Universe().Len() {
		t.Fatalf("spec universe has %d members, by-hand %d", ck.Universe().Len(), ref.Universe().Len())
	}
	rep, err := ck.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid() {
		t.Errorf("knowledge-implies-truth not valid over spec universe")
	}
	trep, err := ck.ParseAndCheckTemporal(`AG (K{q} "sent(p,m)" -> Once "received(q,m)")`)
	if err != nil {
		t.Fatal(err)
	}
	if !trep.AtInit {
		t.Errorf("gain theorem does not hold at init over spec universe")
	}
	if _, err := ck.Parse(`"quiescent"`); err != nil {
		t.Errorf("standard atom missing from spec vocabulary: %v", err)
	}
}

// TestSpecFaults covers the adversarial-channel field end to end:
// equivalent model spellings share a cache key, validation rejects bad
// grammar, unknown crash targets and symmetry-breaking combinations,
// and a fault spec's session exposes the fault atoms and a strictly
// larger universe.
func TestSpecFaults(t *testing.T) {
	base := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4, Faults: "crash,drop:1,dup:1"}
	for _, spelling := range []string{"dup:1, crash, drop:1", "DROP:1,DUP:1,CRASH"} {
		s := base
		s.Faults = spelling
		if s.Digest() != base.Digest() {
			t.Errorf("fault spelling %q does not collide with canonical %q", spelling, base.Faults)
		}
	}
	if c := base.Canonical(); c.Faults != "crash,drop:1,dup:1" {
		t.Errorf("canonical faults = %q", c.Faults)
	}

	ok := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q"}, MaxSends: 1, MaxEvents: 4}
	for _, bad := range []string{"lossy", "drop:-1", "crash:", "crash;drop:1"} {
		s := ok
		s.Faults = bad
		if err := s.Validate(); err == nil {
			t.Errorf("faults %q validated", bad)
		}
	}
	s := ok
	s.Faults = "crash:r" // r is not a process of the spec
	if err := s.Validate(); err == nil {
		t.Errorf("crash of unknown process validated")
	}
	s = ok
	s.Symmetry, s.Faults = "full", "crash:p"
	if err := s.Validate(); err == nil {
		t.Errorf("process-specific crash under symmetry quotient validated")
	}
	s.Faults = "crash" // uniform: every process crashable, quotient sound
	if err := s.Validate(); err != nil {
		t.Errorf("uniform crash under symmetry rejected: %v", err)
	}

	reliable, err := hpl.CheckSpec(ok)
	if err != nil {
		t.Fatal(err)
	}
	fs := ok
	fs.Faults = "crash"
	faulty, err := hpl.CheckSpec(fs)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Universe().Len() <= reliable.Universe().Len() {
		t.Fatalf("fault universe %d members, reliable %d — wrapping must add computations",
			faulty.Universe().Len(), reliable.Universe().Len())
	}
	rep, err := faulty.ParseAndCheckTemporal(`AG ("crashed(q)" -> "anyCrashed")`)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AtInit {
		t.Errorf("crashed(q) -> anyCrashed fails on fault universe")
	}
	if _, err := faulty.Parse(`"crashed(p)"`); err != nil {
		t.Errorf("fault atom missing from spec vocabulary: %v", err)
	}
	if _, err := reliable.Parse(`"anyCrashed"`); err == nil {
		t.Errorf("reliable spec vocabulary should not include fault atoms")
	}

	// Over three processes p's one send may go to q or r, so the wrap
	// offers two drops of it that are one event: the spec still builds,
	// full and quotient, with the drop a single member.
	drop := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4, Faults: "drop:1"}
	dropped, err := hpl.CheckSpec(drop, hpl.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if ev := hpl.NewBuilder().Internal("p", "fault:drop:m").MustBuild(); !dropped.Universe().Contains(ev) {
		t.Errorf("three-process drop universe lacks %s", ev.Key())
	}
	drop.Symmetry = "full"
	quo, err := hpl.CheckSpec(drop)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := quo.Universe().FullSize(), int64(dropped.Universe().Len()); got != want {
		t.Errorf("three-process drop quotient: orbit sizes sum to %d, full universe has %d", got, want)
	}
}

// TestSpecJSONRoundTrip guards the wire format: a spec survives
// marshal/unmarshal with its digest intact.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 2, MaxEvents: 6, Cap: 200000, Faults: "crash,drop:1"}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got hpl.UniverseSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Digest() != s.Digest() {
		t.Errorf("digest changed across JSON round trip")
	}
}

// TestCheckSpecCommutation drives the commutation quotient through the
// facade: a session built with WithCommutation reports full-universe
// counts for an admissible formula, refuses a past operator with an
// *InterleavingError (as ValidateCommuting does), and the spec itself
// has no way to ask for the quotient — hpld never builds one.
func TestCheckSpecCommutation(t *testing.T) {
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 5}
	full, err := hpl.CheckSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	quo, err := hpl.CheckSpec(spec, hpl.WithCommutation())
	if err != nil {
		t.Fatal(err)
	}
	if !quo.Universe().Commuting() || quo.Universe().FullSize() != int64(full.Universe().Len()) {
		t.Fatalf("quotient of %d members stands for %d computations, full universe has %d", quo.Universe().Len(), quo.Universe().FullSize(), full.Universe().Len())
	}
	const admissible = `K{r} "sent(p,m)" | AG "quiescent" | Once "received(q,m)"`
	qrep, err := quo.ParseAndCheck(admissible)
	if err != nil {
		t.Fatal(err)
	}
	frep, err := full.ParseAndCheck(admissible)
	if err != nil {
		t.Fatal(err)
	}
	if qrep.FullHolding != frep.FullHolding || qrep.FullTotal != frep.FullTotal || qrep.Valid() != frep.Valid() {
		t.Fatalf("verdicts diverge: quotient %+v, full %+v", qrep, frep)
	}
	var ie *hpl.InterleavingError
	if _, err := quo.ParseAndCheckTemporal(`EF EY "sent(p,m)"`); !errors.As(err, &ie) {
		t.Fatalf("past operator on the quotient must fail with *InterleavingError, got %v", err)
	}
	f, err := full.Parse(`Hist "quiescent"`)
	if err != nil {
		t.Fatal(err)
	}
	if err := hpl.ValidateCommuting(f); !errors.As(err, &ie) {
		t.Fatalf("ValidateCommuting(%s) = %v, want *InterleavingError", hpl.PrintFormula(f), err)
	}
	if err := (hpl.UniverseSpec{Procs: spec.Procs, Symmetry: "commutation"}).Validate(); err == nil {
		t.Fatal("a spec asking for a commutation quotient must be refused")
	}
}
