package service

import (
	"bufio"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"hpl"
)

// TestSnapshotWrittenOnBuild checks persistence on the write side: with
// a snapshot directory configured, a built universe lands on disk as
// <digest>.hplsnap before the build's waiters are released, and the
// file decodes back to a universe of the same size under that digest.
func TestSnapshotWrittenOnBuild(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(Config{SnapshotDir: dir})
	spec := smallSpec("p", "q")
	e, _, err := r.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceBuild {
		t.Errorf("first materialization source = %q, want %q", e.Source, SourceBuild)
	}
	f, err := os.Open(r.snapshotPath(e.Digest))
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	defer f.Close()
	u, digest, err := hpl.ReadSnapshot(bufio.NewReader(f))
	if err != nil {
		t.Fatalf("written snapshot does not decode: %v", err)
	}
	if digest != e.Digest || u.Len() != e.Checker.Universe().Len() {
		t.Errorf("snapshot mismatch: digest %q members %d, want %q / %d",
			digest, u.Len(), e.Digest, e.Checker.Universe().Len())
	}
	if st := r.Stats(); st.SnapshotErrors != 0 {
		t.Errorf("snapshot write errored: %+v", st)
	}
}

// TestColdStartServedFromSnapshot is the restart contract: a fresh
// registry over a populated snapshot directory answers its first query
// from disk — the build function is never called — and reports the
// entry as snapshot-sourced.
func TestColdStartServedFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec("p", "q")
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	cold.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("cold start fell back to a build")
	}
	e, cached, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Errorf("first Get on a fresh registry reported cached")
	}
	if e.Source != SourceSnapshot {
		t.Errorf("source = %q, want %q", e.Source, SourceSnapshot)
	}
	if e.Checker.Universe().Len() != first.Checker.Universe().Len() {
		t.Errorf("loaded universe has %d members, built one %d",
			e.Checker.Universe().Len(), first.Checker.Universe().Len())
	}
	// Loaded sessions must answer exactly like built ones.
	for _, ck := range []*hpl.Checker{first.Checker, e.Checker} {
		rep, err := ck.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
		if err != nil || !rep.Valid() {
			t.Errorf("knowledge-implies-truth on %s-sourced session: valid=%v err=%v",
				e.Source, rep.Valid(), err)
		}
	}
	st := cold.Stats()
	if st.SnapshotHits != 1 || st.SnapshotMisses != 0 {
		t.Errorf("snapshot counters after cold hit: %+v", st)
	}
}

// TestBuildsCountOnlyEnumerations checks that Stats.Builds counts
// enumerations from scratch only: an extension adds none, and a
// restart that reads its universe from a snapshot reports no build.
func TestBuildsCountOnlyEnumerations(t *testing.T) {
	dir := t.TempDir()
	small := smallSpec("p", "q")
	big := small
	big.MaxEvents = 4
	warm := NewRegistry(Config{SnapshotDir: dir})
	for _, spec := range []hpl.UniverseSpec{small, big} {
		if _, _, err := warm.Get(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := warm.Stats(); st.Builds != 1 || st.Extends != 1 {
		t.Errorf("after a build and an extension: builds %d extends %d, want 1 and 1", st.Builds, st.Extends)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	e, _, err := cold.Get(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceSnapshot {
		t.Fatalf("source = %q, want %q", e.Source, SourceSnapshot)
	}
	if st := cold.Stats(); st.Builds != 0 || st.SnapshotHits != 1 {
		t.Errorf("after a restart over snapshots: builds %d snapshotHits %d, want 0 and 1", st.Builds, st.SnapshotHits)
	}
}

// TestQuotientSnapshotRestart is the restart contract for symmetry
// quotients: a quotient universe persists under its own digest (the
// version-2 snapshot with group and orbit sizes), a fresh registry
// serves it from disk without building, and the loaded session keeps
// both the orbit accounting and the asymmetric-formula rejection.
func TestQuotientSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4, Symmetry: "full"}
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Checker.Universe().IsQuotient() {
		t.Fatal("quotient spec built a full universe")
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	cold.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("quotient restart fell back to a build")
	}
	e, _, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceSnapshot {
		t.Errorf("source = %q, want %q", e.Source, SourceSnapshot)
	}
	u, w := e.Checker.Universe(), first.Checker.Universe()
	if !u.IsQuotient() || !u.Symmetry().Equal(w.Symmetry()) {
		t.Fatalf("loaded universe lost its group: quotient=%v", u.IsQuotient())
	}
	if u.Len() != w.Len() || u.FullSize() != w.FullSize() {
		t.Errorf("loaded quotient %d/%d members, built %d/%d",
			u.Len(), u.FullSize(), w.Len(), w.FullSize())
	}
	for i := 0; i < u.Len(); i++ {
		if u.OrbitSize(i) != w.OrbitSize(i) {
			t.Fatalf("member %d orbit size %d, built %d", i, u.OrbitSize(i), w.OrbitSize(i))
		}
	}
	rep, err := e.Checker.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil || !rep.Valid() {
		t.Errorf("symmetric formula on restored quotient: valid=%v err=%v", rep.Valid(), err)
	}
	wantRep, err := first.Checker.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil || rep.FullHolding != wantRep.FullHolding {
		t.Errorf("weighted counts diverge after restart: %d vs %d (err=%v)", rep.FullHolding, wantRep.FullHolding, err)
	}
	var asym *hpl.AsymmetryError
	if _, err := e.Checker.ParseAndCheck(`"sent(p,m)"`); !errors.As(err, &asym) {
		t.Errorf("restored quotient must keep rejecting asymmetric formulas, got %v", err)
	}
}

// TestCorruptSnapshotFallsBackToBuild checks the degraded path: a
// corrupt snapshot file is removed, the miss falls through to a normal
// build, and the rebuilt universe re-persists a valid snapshot.
func TestCorruptSnapshotFallsBackToBuild(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec("p", "q")
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	path := warm.snapshotPath(first.Digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	e, _, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceBuild {
		t.Errorf("source after corrupt snapshot = %q, want %q", e.Source, SourceBuild)
	}
	if st := cold.Stats(); st.SnapshotMisses != 1 {
		t.Errorf("corrupt load not counted as a miss: %+v", st)
	}
	// The rebuild must have replaced the corrupt file with a good one.
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("rebuild did not re-persist: %v", err)
	}
	defer f.Close()
	if _, _, err := hpl.ReadSnapshot(bufio.NewReader(f)); err != nil {
		t.Errorf("re-persisted snapshot does not decode: %v", err)
	}
}

// TestExtendFromCachedSmallerBound checks the middle materialization
// rung: a miss whose family is cached at a smaller event bound is
// served by incremental extension, the result matches a from-scratch
// build, and the byte accounting stops double-charging the structure
// the two entries now share.
func TestExtendFromCachedSmallerBound(t *testing.T) {
	small := smallSpec("p", "q") // MaxEvents: 3
	big := small
	big.MaxEvents = 4

	r := NewRegistry(Config{})
	seed, _, err := r.Get(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	seedFull := seed.Bytes()
	r.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("family miss fell back to a full build")
	}
	e, _, err := r.Get(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceExtend {
		t.Errorf("source = %q, want %q", e.Source, SourceExtend)
	}

	// The extended universe must be indistinguishable from a fresh one.
	want, err := hpl.CheckSpec(big.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if e.Checker.Universe().Len() != want.Universe().Len() {
		t.Errorf("extended universe has %d members, from-scratch %d",
			e.Checker.Universe().Len(), want.Universe().Len())
	}
	rep, err := e.Checker.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
	if err != nil || !rep.Valid() {
		t.Errorf("extended session verdict: valid=%v err=%v", rep.Valid(), err)
	}

	// Re-charge arithmetic: the seed now pays only its session share,
	// the extended entry the full estimate, and the global byte count is
	// exactly the sum of the entries.
	if got, want := seed.Bytes(), EstimateSessionBytes(seed.Checker.Universe()); got != want {
		t.Errorf("seed re-charge: %d bytes, want session-only %d (was %d)", got, want, seedFull)
	}
	if seed.Bytes() >= seedFull {
		t.Errorf("seed not re-charged below its full estimate: %d >= %d", seed.Bytes(), seedFull)
	}
	st := r.Stats()
	if st.Extends != 1 {
		t.Errorf("extend not counted: %+v", st)
	}
	if sum := seed.Bytes() + e.Bytes(); st.Bytes != sum {
		t.Errorf("global bytes %d != entry sum %d after re-charge", st.Bytes, sum)
	}
}

// TestSnapshotSeedsExtension closes the tentpole loop end to end: a
// restarted registry loads a MaxEvents=3 universe from disk, and the
// next query at MaxEvents=4 is materialized by extending that loaded
// universe — no full enumeration anywhere after the restart.
func TestSnapshotSeedsExtension(t *testing.T) {
	dir := t.TempDir()
	small := smallSpec("p", "q")
	big := small
	big.MaxEvents = 4
	warm := NewRegistry(Config{SnapshotDir: dir})
	if _, _, err := warm.Get(context.Background(), small); err != nil {
		t.Fatal(err)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	cold.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("restart re-enumerated from scratch")
	}
	if e, _, err := cold.Get(context.Background(), small); err != nil || e.Source != SourceSnapshot {
		t.Fatalf("cold small: source=%v err=%v", e, err)
	}
	e, _, err := cold.Get(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceExtend {
		t.Errorf("big after restart: source = %q, want %q", e.Source, SourceExtend)
	}
	want, err := hpl.CheckSpec(big.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if e.Checker.Universe().Len() != want.Universe().Len() {
		t.Errorf("snapshot-seeded extension has %d members, want %d",
			e.Checker.Universe().Len(), want.Universe().Len())
	}
	// The extension itself must have been persisted for the next restart.
	if _, err := os.Stat(cold.snapshotPath(e.Digest)); err != nil {
		t.Errorf("extended universe not persisted: %v", err)
	}
}

// TestServerReportsSource checks the wire surface: /v1/universe-stats
// carries the entry's source, "build" on first contact and "snapshot"
// after a server restart over the same directory. A symmetry quotient
// makes the same round trip and must come back with its group, full
// member count and largest orbit unchanged.
func TestServerReportsSource(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	quotient := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4, Symmetry: "full"}
	ts1 := httptest.NewServer(NewServer(NewRegistry(cfg)))
	cl1 := &Client{Base: ts1.URL, HTTPClient: ts1.Client()}
	var first []StatsResponse
	for _, spec := range []hpl.UniverseSpec{testSpec, quotient} {
		st, err := cl1.UniverseStats(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Source != SourceBuild {
			t.Errorf("first stats source = %q, want %q", st.Source, SourceBuild)
		}
		first = append(first, st)
	}
	if q := first[1]; q.Symmetry == "" || q.FullMembers <= int64(q.Members) || q.MaxOrbit < 2 {
		t.Fatalf("quotient stats lack orbit accounting: %+v", q)
	}
	ts1.Close()

	// "Restart": a new server process over the same snapshot directory.
	ts2 := httptest.NewServer(NewServer(NewRegistry(cfg)))
	defer ts2.Close()
	cl2 := &Client{Base: ts2.URL, HTTPClient: ts2.Client()}
	for i, spec := range []hpl.UniverseSpec{testSpec, quotient} {
		st, err := cl2.UniverseStats(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Source != SourceSnapshot {
			t.Errorf("post-restart stats source = %q, want %q", st.Source, SourceSnapshot)
		}
		was := first[i]
		if st.Members != was.Members || st.Symmetry != was.Symmetry ||
			st.FullMembers != was.FullMembers || st.MaxOrbit != was.MaxOrbit {
			t.Errorf("stats changed across restart: members %d/%d, symmetry %q/%q, fullMembers %d/%d, maxOrbit %d/%d",
				st.Members, was.Members, st.Symmetry, was.Symmetry,
				st.FullMembers, was.FullMembers, st.MaxOrbit, was.MaxOrbit)
		}
	}
	h, err := cl2.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.SnapshotHits != 2 {
		t.Errorf("health does not report both snapshot hits: %+v", h)
	}
}

// TestRetiredSnapshotVersionRebuilt: a snapshot of a retired codec
// version in the snapshot directory — here a current file relabelled
// version 2 — is a miss, never a failed request. The server answers
// from a build, reports "source": "build", and replaces the file with
// one the current codec reads.
func TestRetiredSnapshotVersionRebuilt(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	reg := NewRegistry(cfg)
	first, _, err := reg.Get(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	path := reg.snapshotPath(first.Digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] = 2 // the version byte follows the 6-byte magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewServer(NewRegistry(cfg)))
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTPClient: ts.Client()}
	st, err := cl.UniverseStats(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != SourceBuild {
		t.Errorf("source over a version-2 file = %q, want %q", st.Source, SourceBuild)
	}
	resp, err := cl.Check(context.Background(), testSpec, `K{q} "sent(p,m)" -> "sent(p,m)"`)
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; r.Error != "" || !r.Valid {
		t.Errorf("check over the rebuilt universe: %+v", r)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("rebuild did not re-persist: %v", err)
	}
	defer f.Close()
	if _, _, err := hpl.ReadSnapshot(bufio.NewReader(f)); err != nil {
		t.Errorf("re-persisted snapshot does not decode: %v", err)
	}
}
