package universe_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"strings"
	"testing"

	"hpl/internal/protocols/tokenbus"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// renameComputation applies a process renaming to a computation through
// the identifier embedding ("p#2" → "q#2", "p:1" → "q:1"), revalidating
// the renamed sequence. It is the tests' independent implementation of
// the group action the engine quotients by.
func renameComputation(t *testing.T, c *trace.Computation, sigma map[trace.ProcID]trace.ProcID) *trace.Computation {
	t.Helper()
	ren := func(p trace.ProcID) trace.ProcID {
		if q, ok := sigma[p]; ok {
			return q
		}
		return p
	}
	evs := c.Events()
	out := make([]trace.Event, len(evs))
	for i, ev := range evs {
		ev.Proc = ren(ev.Proc)
		id := string(ev.ID)
		ev.ID = trace.EventID(string(ev.Proc) + id[strings.LastIndexByte(id, '#'):])
		if ev.Peer != "" {
			ev.Peer = ren(ev.Peer)
		}
		if ev.Msg != "" {
			m := string(ev.Msg)
			ev.Msg = trace.MsgID(string(ren(ev.Msg.Sender())) + m[strings.LastIndexByte(m, ':'):])
		}
		out[i] = ev
	}
	rc, err := trace.NewComputation(out)
	if err != nil {
		t.Fatalf("renamed computation is invalid: %v", err)
	}
	return rc
}

// groupElements materializes every element of the declared group as a
// renaming map (identity included), independently of the engine.
func groupElements(s *universe.Symmetry) []map[trace.ProcID]trace.ProcID {
	elems := []map[trace.ProcID]trace.ProcID{{}}
	var perms func(ids []trace.ProcID, acc []trace.ProcID, fn func([]trace.ProcID))
	perms = func(ids []trace.ProcID, acc []trace.ProcID, fn func([]trace.ProcID)) {
		if len(ids) == 0 {
			fn(acc)
			return
		}
		for i := range ids {
			rest := make([]trace.ProcID, 0, len(ids)-1)
			rest = append(rest, ids[:i]...)
			rest = append(rest, ids[i+1:]...)
			perms(rest, append(acc, ids[i]), fn)
		}
	}
	for _, cl := range s.Classes() {
		var next []map[trace.ProcID]trace.ProcID
		perms(cl, nil, func(img []trace.ProcID) {
			for _, base := range elems {
				m := make(map[trace.ProcID]trace.ProcID, len(base)+len(cl))
				for k, v := range base {
					m[k] = v
				}
				for i, p := range cl {
					m[p] = img[i]
				}
				next = append(next, m)
			}
		})
		elems = next
	}
	return elems
}

func TestSymmetryConstruction(t *testing.T) {
	if _, err := universe.NewSymmetry([]trace.ProcID{"p", "q"}, []trace.ProcID{"q", "r"}); err == nil {
		t.Fatal("overlapping classes must be rejected")
	}
	if _, err := universe.NewSymmetry([]trace.ProcID{"p", ""}); err == nil {
		t.Fatal("empty process identifier must be rejected")
	}
	if _, err := universe.FullSymmetry("a", "b", "c", "d", "e", "f", "g", "h", "i"); err == nil {
		t.Fatal("order above 8! must be rejected")
	}
	s, err := universe.NewSymmetry([]trace.ProcID{"p"}, []trace.ProcID{"r", "q"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Trivial() || s.Order() != 2 || s.Key() != "{q,r}" {
		t.Fatalf("got order %d key %q", s.Order(), s.Key())
	}
	if !s.Invariant(trace.NewProcSet("q", "r", "p")) || !s.Invariant(trace.NewProcSet("p")) {
		t.Fatal("unions of orbits must be invariant")
	}
	if s.Invariant(trace.NewProcSet("q")) {
		t.Fatal("{q} splits the class {q,r}: not invariant")
	}
	if !s.FixesAll("p", "x") || s.FixesAll("r") {
		t.Fatal("FixesAll must reflect class membership")
	}
	triv, err := universe.NewSymmetry([]trace.ProcID{"p"})
	if err != nil || !triv.Trivial() {
		t.Fatalf("singleton classes carry no symmetry: %v", err)
	}
	full, err := universe.FullSymmetry("p", "q", "r")
	if err != nil || full.Order() != 6 {
		t.Fatalf("|S3| = 6, got %d (%v)", full.Order(), err)
	}
	if full.Equal(s) || !full.Equal(full) || !triv.Equal(nil) {
		t.Fatal("Equal must compare declared classes")
	}
}

// TestQuotientIsOrbitTransversal is the semantic core: the quotient's
// members must be exactly one representative per renaming orbit of the
// full universe, with OrbitSize matching the true orbit cardinality and
// FullSize the full count.
func TestQuotientIsOrbitTransversal(t *testing.T) {
	cases := []struct {
		name string
		cfg  universe.FreeConfig
		sym  func(t *testing.T, p universe.Protocol) *universe.Symmetry
		max  int
	}{
		{
			name: "free-3-full-group",
			cfg:  universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1},
			sym: func(t *testing.T, p universe.Protocol) *universe.Symmetry {
				s := universe.InferSymmetry(p)
				if s == nil {
					t.Fatal("free systems must declare their symmetry")
				}
				return s
			},
			max: 4,
		},
		{
			name: "free-3-partial-class",
			cfg:  universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1, MaxInternal: 1},
			sym: func(t *testing.T, _ universe.Protocol) *universe.Symmetry {
				s, err := universe.NewSymmetry([]trace.ProcID{"q", "r"})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			max: 4,
		},
		{
			name: "free-2-tags",
			cfg:  universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 2, SendTags: []string{"m", "n"}},
			sym: func(t *testing.T, p universe.Protocol) *universe.Symmetry {
				return universe.InferSymmetry(p)
			},
			max: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proto := universe.NewFree(tc.cfg)
			sym := tc.sym(t, proto)
			full := universe.MustEnumerateWith(proto, universe.WithMaxEvents(tc.max))
			quo, err := universe.EnumerateWith(proto,
				universe.WithMaxEvents(tc.max),
				universe.WithSymmetry(sym))
			if err != nil {
				t.Fatal(err)
			}
			if quo.Symmetry() == nil || !quo.IsQuotient() {
				t.Fatal("quotient universe must carry its group")
			}
			if quo.Len() >= full.Len() {
				t.Fatalf("no reduction: quotient %d vs full %d", quo.Len(), full.Len())
			}
			elems := groupElements(sym)
			covered := make(map[int]bool, full.Len())
			for i := 0; i < quo.Len(); i++ {
				orbit := make(map[int]bool)
				for _, sigma := range elems {
					rc := renameComputation(t, quo.At(i), sigma)
					j := full.IndexOf(rc)
					if j < 0 {
						t.Fatalf("member %d renamed by %v leaves the universe: %s", i, sigma, rc.Key())
					}
					orbit[j] = true
				}
				if got, want := quo.OrbitSize(i), int64(len(orbit)); got != want {
					t.Fatalf("member %d: OrbitSize %d, true orbit has %d", i, got, want)
				}
				for j := range orbit {
					if covered[j] {
						t.Fatalf("orbits overlap at full member %d", j)
					}
					covered[j] = true
				}
			}
			if len(covered) != full.Len() {
				t.Fatalf("orbits cover %d of %d full members", len(covered), full.Len())
			}
			if quo.FullSize() != int64(full.Len()) {
				t.Fatalf("FullSize %d, full universe has %d", quo.FullSize(), full.Len())
			}
			if full.FullSize() != int64(full.Len()) || full.OrbitSize(0) != 1 || full.IsQuotient() || full.WeightClasses() != nil {
				t.Fatal("full universes must report trivial orbit bookkeeping")
			}
			requireWeightClasses(t, quo)
		})
	}
}

// TestQuotientDeterministic holds the quotient to the engine's
// any-parallelism byte-identity contract.
func TestQuotientDeterministic(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
	sym := universe.InferSymmetry(proto)
	want, err := universe.EnumerateWith(proto,
		universe.WithMaxEvents(5), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := universe.EnumerateWith(proto,
			universe.WithMaxEvents(5),
			universe.WithSymmetry(sym),
			universe.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalUniverses(t, "quotient", got, want)
		requireWeightClasses(t, got)
		for i := 0; i < got.Len(); i++ {
			if got.OrbitSize(i) != want.OrbitSize(i) {
				t.Fatalf("workers=%d: member %d orbit size %d vs %d", workers, i, got.OrbitSize(i), want.OrbitSize(i))
			}
		}
	}
}

// TestQuotientExtend checks that extending a quotient matches the
// from-scratch quotient at the larger bound, orbit sizes included, and
// that symmetry mismatches between seed and extension are rejected.
func TestQuotientExtend(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	sym := universe.InferSymmetry(proto)
	base, err := universe.EnumerateWith(proto, universe.WithMaxEvents(3), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	got, err := universe.Extend(base, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := universe.EnumerateWith(proto, universe.WithMaxEvents(5), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalUniverses(t, "extended quotient", got, want)
	requireWeightClasses(t, got)
	if got.FullSize() != want.FullSize() {
		t.Fatalf("FullSize %d vs %d", got.FullSize(), want.FullSize())
	}
	for i := 0; i < got.Len(); i++ {
		if got.OrbitSize(i) != want.OrbitSize(i) {
			t.Fatalf("member %d orbit size %d vs %d", i, got.OrbitSize(i), want.OrbitSize(i))
		}
	}

	partial, err := universe.NewSymmetry([]trace.ProcID{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := universe.Extend(base, universe.WithMaxEvents(6), universe.WithSymmetry(partial)); !errors.Is(err, universe.ErrCannotExtend) {
		t.Fatalf("extending under a different group must fail, got %v", err)
	}
	full := universe.MustEnumerateWith(proto, universe.WithMaxEvents(3))
	if _, err := universe.Extend(full, universe.WithMaxEvents(5), universe.WithSymmetry(sym)); !errors.Is(err, universe.ErrCannotExtend) {
		t.Fatalf("quotienting a full seed must fail, got %v", err)
	}
}

// TestSymmetryRequiresInterchangeableInit rejects groups whose classes
// mix processes with different initial states (the root would not be
// stabilized) and classes mentioning unknown processes.
func TestSymmetryRequiresInterchangeableInit(t *testing.T) {
	bus := tokenbus.MustNew("p", "q", "r") // p starts with the token
	s, err := universe.NewSymmetry([]trace.ProcID{"p", "q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := universe.EnumerateWith(bus, universe.WithMaxEvents(4), universe.WithSymmetry(s)); err == nil {
		t.Fatal("asymmetric Init within a class must be rejected")
	}
	ghost, err := universe.NewSymmetry([]trace.ProcID{"q", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q"}, MaxSends: 1})
	if _, err := universe.EnumerateWith(proto, universe.WithMaxEvents(3), universe.WithSymmetry(ghost)); err == nil {
		t.Fatal("classes mentioning unknown processes must be rejected")
	}
}

// TestQuotientSnapshotRoundTrip: a quotient snapshot (format version 2)
// restores the group, orbit sizes, and full count, stays extendable
// after BindProtocol, and never persists partition tables.
func TestQuotientSnapshotRoundTrip(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	sym := universe.InferSymmetry(proto)
	u, err := universe.EnumerateWith(proto, universe.WithMaxEvents(4), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	u.Transitions()
	u.Partition(u.All()) // built, but must not be persisted
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, u, "quotient-digest"); err != nil {
		t.Fatal(err)
	}
	got, digest, err := universe.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if digest != "quotient-digest" {
		t.Fatalf("digest %q", digest)
	}
	if got.Symmetry() == nil || !got.Symmetry().Equal(u.Symmetry()) {
		t.Fatalf("symmetry not restored: %v", got.Symmetry())
	}
	if got.FullSize() != u.FullSize() {
		t.Fatalf("FullSize %d vs %d", got.FullSize(), u.FullSize())
	}
	for i := 0; i < got.Len(); i++ {
		if got.OrbitSize(i) != u.OrbitSize(i) {
			t.Fatalf("member %d orbit size %d vs %d", i, got.OrbitSize(i), u.OrbitSize(i))
		}
	}
	requireIdenticalUniverses(t, "quotient snapshot", got, u)
	requireWeightClasses(t, got)

	got.BindProtocol(proto)
	ext, err := universe.Extend(got, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := universe.EnumerateWith(proto, universe.WithMaxEvents(5), universe.WithSymmetry(sym))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalUniverses(t, "extended snapshot quotient", ext, want)

	// Corruption sweep over the version-2 format: truncations and bit
	// flips must fail with structured errors, never load.
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) - 1, len(raw) - 9, len(raw) / 2, 10} {
		if _, _, err := universe.ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	for _, pos := range []int{20, len(raw) / 2, len(raw) - 20} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, _, err := universe.ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at %d must fail", pos)
		}
	}
}

// requireWeightClasses checks a quotient's weight classes against its
// orbit sizes: non-empty bitsets in strictly increasing size that
// partition the members, each member in the class of its own size.
func requireWeightClasses(t *testing.T, u *universe.Universe) {
	t.Helper()
	classes := u.WeightClasses()
	if len(classes) == 0 {
		t.Fatal("quotient has no weight classes")
	}
	seen := 0
	for k, c := range classes {
		if k > 0 && c.Size <= classes[k-1].Size {
			t.Fatalf("class %d size %d not above class %d size %d", k, c.Size, k-1, classes[k-1].Size)
		}
		if len(c.Members) != (u.Len()+63)/64 {
			t.Fatalf("class %d has %d words for %d members", k, len(c.Members), u.Len())
		}
		n := 0
		for i := 0; i < len(c.Members)*64; i++ {
			if c.Members[i>>6]&(1<<(uint(i)&63)) == 0 {
				continue
			}
			if i >= u.Len() || u.OrbitSize(i) != c.Size {
				t.Fatalf("member %d is in the size-%d class", i, c.Size)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("class %d (size %d) is empty", k, c.Size)
		}
		seen += n
	}
	if seen != u.Len() {
		t.Fatalf("weight classes hold %d of %d members", seen, u.Len())
	}
}

// orbitSnapshot writes the p,q,r free quotient (one send each, four
// events) under the full group S3 and returns the bytes and the member
// count.
func orbitSnapshot(t testing.TB) ([]byte, int) {
	t.Helper()
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 1})
	u, err := universe.EnumerateWith(proto, universe.WithMaxEvents(4), universe.WithSymmetry(universe.InferSymmetry(proto)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, u, "orbit-digest"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), u.Len()
}

// withOrbitSizes re-frames a quotient snapshot of the given member
// count with the orbit sizes of its first members replaced by sizes.
// The sizes are the payload's last section, one uvarint per member, and
// every size under S3 is a single byte; the payload length and the
// checksum are recomputed so only the sizes are wrong.
func withOrbitSizes(snap []byte, members int, sizes ...uint64) []byte {
	const header = 6 + 1 + 8 // magic, version, payload length
	payload := snap[header : len(snap)-8]
	body := bytes.Clone(payload[:len(payload)-members])
	for i, b := range payload[len(payload)-members:] {
		o := uint64(b)
		if i < len(sizes) {
			o = sizes[i]
		}
		body = binary.AppendUvarint(body, o)
	}
	out := binary.LittleEndian.AppendUint64(bytes.Clone(snap[:header-8]), uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint64(out, crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
}

// TestSnapshotRejectsImpossibleOrbitSizes: an orbit's size is |G| over
// its stabilizer's, so a loaded size must divide the group's order, and
// the sizes' sum must not wrap. A checksum-valid file that breaks
// either is corrupt, not a quotient with a wrong FullSize.
func TestSnapshotRejectsImpossibleOrbitSizes(t *testing.T) {
	raw, members := orbitSnapshot(t)
	if _, _, err := universe.ReadSnapshot(bytes.NewReader(withOrbitSizes(raw, members))); err != nil {
		t.Fatalf("re-framed snapshot with its own sizes must load: %v", err)
	}
	for name, sizes := range map[string][]uint64{
		"not_a_divisor": {7, 7},
		"overflowing":   {math.MaxInt64, math.MaxInt64},
	} {
		t.Run(name, func(t *testing.T) {
			u, _, err := universe.ReadSnapshot(bytes.NewReader(withOrbitSizes(raw, members, sizes...)))
			if !errors.Is(err, universe.ErrSnapshotCorrupt) {
				full := int64(-1)
				if u != nil {
					full = u.FullSize()
				}
				t.Fatalf("err = %v (FullSize %d), want ErrSnapshotCorrupt", err, full)
			}
		})
	}
}

// TestQuotientReductionLarge is the acceptance criterion: on the
// three-process free system at MaxEvents=6 (the 107,593-member
// benchmark universe) the quotient must be at least 5× smaller while
// accounting for every full member through its orbit sizes.
func TestQuotientReductionLarge(t *testing.T) {
	proto := universe.NewFree(universe.FreeConfig{Procs: []trace.ProcID{"p", "q", "r"}, MaxSends: 2})
	full := universe.MustEnumerateWith(proto, universe.WithMaxEvents(6))
	if full.Len() < 100000 {
		t.Fatalf("reference universe too small: %d", full.Len())
	}
	quo, err := universe.EnumerateWith(proto,
		universe.WithMaxEvents(6),
		universe.WithSymmetry(universe.InferSymmetry(proto)))
	if err != nil {
		t.Fatal(err)
	}
	if quo.FullSize() != int64(full.Len()) {
		t.Fatalf("orbit sizes sum to %d, full universe has %d", quo.FullSize(), full.Len())
	}
	if ratio := float64(full.Len()) / float64(quo.Len()); ratio < 5 {
		t.Fatalf("reduction %.2f× below the 5× acceptance bar (quotient %d, full %d)", ratio, quo.Len(), full.Len())
	}
	t.Logf("full %d → quotient %d (%.2f×)", full.Len(), quo.Len(), float64(full.Len())/float64(quo.Len()))
}
