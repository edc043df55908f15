package hpl_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"hpl"
	"hpl/internal/faults"
)

// FuzzSpec hammers the spec decoder with mutated JSON bodies, the form
// in which specs reach the service: whatever the body, either Validate
// rejects the decoded spec, or its canonical form is a fixed point of
// Canonical, its digest is the canonical form's digest, and its fault
// model round-trips through Parse and String. The corpus is seeded with
// the golden-digest spec and every fault form.
func FuzzSpec(f *testing.F) {
	f.Add(`{"procs":["p","q"],"maxSends":1,"maxEvents":4}`)
	f.Add(`{"procs":["p","q","r"],"maxSends":1,"symmetry":" FULL","faults":"crash,dup:1"}`)
	for _, m := range []string{
		"", "none", "crash", "crash:p", "crash:q, crash:p,crash:p", "drop:1", "dup:2",
		"crash,drop:1,dup:1", " DUP:1 , Crash ", "drop:0", "drop:-1", "crash:", "bogus",
	} {
		body, err := json.Marshal(hpl.UniverseSpec{
			Protocol: "free", Procs: []hpl.ProcID{"q", " p", "q"}, MaxSends: 2, MaxInternal: 1,
			SendTags: []string{"m", "n"}, MaxEvents: 6, Cap: 1000, Faults: m,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Fuzz(func(t *testing.T, body string) {
		var s hpl.UniverseSpec
		if json.Unmarshal([]byte(body), &s) != nil || s.Validate() != nil {
			return
		}
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonical is not idempotent: %+v then %+v", c, cc)
		}
		if s.Digest() != c.Digest() {
			t.Fatalf("Digest %s differs from the canonical form's %s", s.Digest(), c.Digest())
		}
		m, err := faults.Parse(c.Faults)
		if err != nil {
			t.Fatalf("valid spec's faults %q fail to parse: %v", c.Faults, err)
		}
		back, err := faults.Parse(m.String())
		if err != nil || !reflect.DeepEqual(back.Canonical(), m.Canonical()) || m.String() != c.Faults {
			t.Fatalf("faults %q: model %+v prints as %q, which parses to %+v (%v)", c.Faults, m, m.String(), back, err)
		}
	})
}
