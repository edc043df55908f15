// Package service is the multi-tenant epistemic-checking service behind
// cmd/hpld: a registry that keeps enumerated universes hot in an
// LRU-evicted, memory-accounted cache keyed by the canonical spec digest
// (hpl.UniverseSpec.Digest), and an HTTP/JSON server answering formula
// queries against them. The cache's budget covers each universe, its
// session's tables and the truth vectors its memo holds: over budget,
// the registry first trims memos, least recently used session first,
// and evicts universes only when what no trim frees does not fit.
//
// The engine underneath was built for exactly this shape of load:
// universes are immutable once enumerated, Checker/Evaluator are safe
// for concurrent queries and memoize one truth vector per distinct
// hash-consed subformula while it is resident, so N clients
// interrogating one warm universe share every intermediate result.
// What the package adds is the multi-tenant shell — singleflight on
// concurrent builds of the same universe, per-universe byte accounting
// that includes each session's memo, memo trimming and eviction, cancellation
// plumbed through to the enumeration engine, and structured client
// errors instead of OOMs.
package service

import (
	"bufio"
	"container/list"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpl"
)

// Error is a structured, client-visible service error: Status is the
// HTTP status the server responds with, Code a stable machine-readable
// discriminator, Message the human-readable detail.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"error"`
}

func (e *Error) Error() string { return e.Message }

// Error codes.
const (
	CodeBadSpec          = "bad_spec"           // 400: the spec does not describe an enumerable system
	CodeBadRequest       = "bad_request"        // 400: malformed JSON, missing formulas, oversized batch, formula nested too deeply
	CodeUniverseTooLarge = "universe_too_large" // 422: enumeration exceeded the cap
	CodeBudgetExceeded   = "budget_exceeded"    // 413: built universe exceeds the memory budget
	CodeBuildCancelled   = "build_cancelled"    // 503: every waiter abandoned the build
	CodeNotFound         = "not_found"          // 404
	CodeDeadlineExceeded = "deadline_exceeded"  // 503: the server's per-request deadline elapsed
)

func badSpec(err error) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadSpec, Message: err.Error()}
}

// Config parameterizes a Registry.
type Config struct {
	// MaxBytes is the cache's memory budget across all universes: each
	// one's estimated structure and tables (see EstimateBytes) plus the
	// bytes its session's memo holds (Entry.Bytes); <= 0 defaults to
	// 512 MiB. A single universe whose estimate exceeds the whole
	// budget is rejected with a structured 413 rather than cached; a
	// memo that outgrows it is trimmed.
	MaxBytes int64
	// MaxMembers clamps every request's enumeration cap: a request with
	// no cap (or a larger one) gets this cap, so runaway specs fail
	// with a structured 422 instead of exhausting memory; <= 0
	// defaults to 500k members.
	MaxMembers int
	// BuildParallelism is the enumeration worker count per build; <= 0
	// defaults to GOMAXPROCS.
	BuildParallelism int
	// SnapshotDir, when non-empty, persists universes across restarts:
	// every built (or extended) universe is written to
	// <dir>/<digest>.hplsnap, and a cold miss is satisfied from disk —
	// a millisecond load instead of a re-enumeration — before any build
	// runs. The directory must exist; unreadable or corrupt files are
	// removed and fall back to a build.
	SnapshotDir string
}

const (
	defaultMaxBytes   = 512 << 20
	defaultMaxMembers = 500000
)

// Registry is the hot universe cache: canonical spec digest → checking
// session, with LRU eviction under a byte budget and singleflight
// builds. All methods are safe for concurrent use.
type Registry struct {
	maxBytes int64
	maxCap   int
	buildPar int
	snapDir  string
	// buildFn builds a session for a canonical spec; tests substitute
	// counting/blocking builders.
	buildFn func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error)
	// injectFault, when non-nil, is consulted at the registry's fault
	// points — "build", "snapshot-load", "snapshot-write" — with the
	// universe digest; a non-nil error simulates that step failing.
	// Test-only: it lets degradation paths (failed builds, corrupt
	// snapshots, full disks) be exercised deterministically without
	// manufacturing the underlying condition.
	injectFault func(point, digest string) error

	mu      sync.Mutex
	entries map[string]*Entry
	lru     *list.List // front = most recently used; values are *Entry
	calls   map[string]*call
	// bytes sums the entries' fixed estimates and memo their charged
	// memo bytes (see Entry.chargeMemo). bytes changes only under mu;
	// both are atomic so that Settle's check within budget takes no
	// lock.
	bytes, memo atomic.Int64

	builds, hits, misses, evictions          int64
	snapshotHits, snapshotMisses, snapErrors int64
	extends                                  int64
}

// Entry sources: how the cached universe came to be resident.
const (
	// SourceBuild: enumerated from scratch by the build function.
	SourceBuild = "build"
	// SourceSnapshot: loaded from the snapshot directory without any
	// enumeration.
	SourceSnapshot = "snapshot"
	// SourceExtend: enumerated incrementally from a cached universe of
	// the same family at a smaller event bound.
	SourceExtend = "extend"
)

// Entry is one cached universe with its session and accounting. The
// fields are immutable after insertion except the registry-managed LRU
// bookkeeping and the fixed byte estimate, which is re-charged when an
// extension starts sharing the entry's structure.
type Entry struct {
	// Spec is the canonical spec the universe was built from.
	Spec hpl.UniverseSpec
	// Digest is the cache key.
	Digest string
	// Checker is the shared session: concurrent queries reuse its
	// memoized truth vectors.
	Checker *hpl.Checker
	// Source reports how the universe became resident: SourceBuild,
	// SourceSnapshot, or SourceExtend.
	Source string
	// BuildDuration is how long it took to make the universe resident —
	// enumeration + session setup for builds and extensions, the disk
	// load for snapshots.
	BuildDuration time.Duration
	// BuiltAt is when the build completed.
	BuiltAt time.Time

	mu sync.Mutex
	// fixed is the structure and table estimate (EstimateBytes), or the
	// tables alone (EstimateSessionBytes) once an extension shares the
	// structure.
	fixed int64
	// memo is the memo bytes charged to the cache as of the last
	// Settle; an evicted entry is charged nothing more.
	memo    int64
	evicted bool
	hits    int64
	elem    *list.Element
}

// Bytes reports the entry's resident footprint: its fixed estimate
// (see EstimateBytes) plus the bytes its session's memo holds now. When
// a cached universe becomes the seed of an extension, the extended
// entry charges their shared structure and the seed is re-charged to
// its session-only estimate, so the two entries together account the
// shared prefix tree once.
func (e *Entry) Bytes() int64 {
	e.mu.Lock()
	fixed := e.fixed
	e.mu.Unlock()
	return fixed + e.Checker.Evaluator().MemoBytes()
}

func (e *Entry) setFixed(b int64) {
	e.mu.Lock()
	e.fixed = b
	e.mu.Unlock()
}

// chargeMemo charges the bytes the entry's memo holds now and returns
// the change since its last charge.
func (e *Entry) chargeMemo() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.evicted {
		return 0
	}
	b := e.Checker.Evaluator().MemoBytes()
	d := b - e.memo
	e.memo = b
	return d
}

// uncharge marks the entry evicted and returns what it was charged.
func (e *Entry) uncharge() (fixed, memo int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evicted = true
	return e.fixed, e.memo
}

// Hits reports how many cache hits the entry has served.
func (e *Entry) Hits() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits
}

func (e *Entry) addHit() {
	e.mu.Lock()
	e.hits++
	e.mu.Unlock()
}

// call is one in-flight singleflight build. waiters counts the Get
// calls blocked on it; when the last one's context ends the build
// context is cancelled and the enumeration stops promptly.
type call struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by Registry.mu
	entry   *Entry
	err     error
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		maxBytes: cfg.MaxBytes,
		maxCap:   cfg.MaxMembers,
		buildPar: cfg.BuildParallelism,
		snapDir:  cfg.SnapshotDir,
		entries:  make(map[string]*Entry),
		lru:      list.New(),
		calls:    make(map[string]*call),
	}
	if r.maxBytes <= 0 {
		r.maxBytes = defaultMaxBytes
	}
	if r.maxCap <= 0 {
		r.maxCap = defaultMaxMembers
	}
	if r.buildPar <= 0 {
		r.buildPar = runtime.GOMAXPROCS(0)
	}
	r.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return hpl.CheckSpec(spec, hpl.WithContext(ctx), hpl.WithParallelism(r.buildPar))
	}
	return r
}

// clamp returns the canonical spec with its cap clamped to the
// registry's member limit. The clamped spec is what gets digested, so
// the cache key is deterministic for a given server configuration.
func (r *Registry) clamp(spec hpl.UniverseSpec) hpl.UniverseSpec {
	c := spec.Canonical()
	if c.Cap <= 0 || c.Cap > r.maxCap {
		c.Cap = r.maxCap
	}
	return c
}

// Get returns the hot session for the spec, building it on a miss. The
// bool reports whether the universe was already cached. Concurrent
// misses on the same digest share exactly one build (singleflight); the
// build is abandoned — its enumeration cancelled via WithContext — only
// when the context of the last waiting Get is done. Errors are *Error
// values carrying HTTP status and code.
func (r *Registry) Get(ctx context.Context, spec hpl.UniverseSpec) (*Entry, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, badSpec(err)
	}
	spec = r.clamp(spec)
	digest := spec.Digest()
	for {
		e, cached, err := r.getOnce(ctx, spec, digest)
		// A Get can lose a race by joining a build in the instant after
		// its last previous waiter cancelled it; with this Get's own
		// context still live, the right move is a fresh build, not a
		// spurious 503.
		if serr := (*Error)(nil); errors.As(err, &serr) && serr.Code == CodeBuildCancelled && ctx.Err() == nil {
			continue
		}
		return e, cached, err
	}
}

func (r *Registry) getOnce(ctx context.Context, spec hpl.UniverseSpec, digest string) (*Entry, bool, error) {
	r.mu.Lock()
	if e, ok := r.entries[digest]; ok {
		r.lru.MoveToFront(e.elem)
		r.hits++
		r.mu.Unlock()
		regLookupHits.Inc()
		e.addHit()
		return e, true, nil
	}
	// A Get whose context is already done must not start or join a
	// build: a small build could finish before the select below runs,
	// and the caller would get an entry instead of its own ctx.Err().
	if err := ctx.Err(); err != nil {
		r.mu.Unlock()
		return nil, false, err
	}
	r.misses++
	regLookupMisses.Inc()
	c, inflight := r.calls[digest]
	if !inflight {
		buildCtx, cancel := context.WithCancel(context.Background())
		c = &call{done: make(chan struct{}), cancel: cancel}
		r.calls[digest] = c
		go r.build(buildCtx, c, spec, digest)
	} else {
		regJoins.Inc()
	}
	c.waiters++
	r.mu.Unlock()

	select {
	case <-c.done:
		return c.entry, false, c.err
	case <-ctx.Done():
		// The build may have completed in the same instant; prefer its
		// result over reporting cancellation.
		select {
		case <-c.done:
			return c.entry, false, c.err
		default:
		}
		r.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		r.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, false, ctx.Err()
	}
}

// build runs one singleflight materialization and publishes the
// result. "Materialize" is a three-rung fallback, cheapest first: load
// a snapshot from disk, extend a cached universe of the same family at
// a smaller bound, enumerate from scratch.
func (r *Registry) build(ctx context.Context, c *call, spec hpl.UniverseSpec, digest string) {
	defer c.cancel()
	start := time.Now()
	ck, source, seedDigest, err := r.materialize(ctx, spec, digest)

	var e *Entry
	switch {
	case err == nil:
		bytes := EstimateBytes(ck.Universe())
		if bytes > r.maxBytes {
			err = &Error{
				Status: http.StatusRequestEntityTooLarge,
				Code:   CodeBudgetExceeded,
				Message: fmt.Sprintf("universe %s has %d members (~%d MiB), exceeding the service memory budget of %d MiB; lower maxEvents or per-process bounds",
					digest[:12], ck.Universe().Len(), bytes>>20, r.maxBytes>>20),
			}
			break
		}
		e = &Entry{
			Spec:          spec,
			Digest:        digest,
			Checker:       ck,
			Source:        source,
			BuildDuration: time.Since(start),
			BuiltAt:       time.Now(),
		}
		e.fixed = bytes
		// Persist before publishing: once a waiter sees the entry, a
		// restart must be able to serve it from disk.
		if r.snapDir != "" && source != SourceSnapshot {
			r.writeSnapshot(e)
		}
	case errors.Is(err, hpl.ErrUniverseTooLarge):
		err = &Error{
			Status: http.StatusUnprocessableEntity,
			Code:   CodeUniverseTooLarge,
			Message: fmt.Sprintf("enumeration of universe %s exceeds the cap of %d members; lower maxEvents or per-process bounds",
				digest[:12], spec.Canonical().Cap),
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		err = &Error{
			Status:  http.StatusServiceUnavailable,
			Code:    CodeBuildCancelled,
			Message: fmt.Sprintf("build of universe %s was abandoned: %v", digest[:12], err),
		}
	default:
		err = badSpec(err)
	}

	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	materializations(source, outcome).Inc()
	if e != nil {
		materializeSeconds(source).ObserveDuration(e.BuildDuration)
	}

	r.mu.Lock()
	delete(r.calls, digest)
	if source == SourceBuild {
		r.builds++
	}
	if e != nil {
		e.elem = r.lru.PushFront(e)
		r.entries[e.Digest] = e
		r.bytes.Add(e.fixed)
		if source == SourceExtend {
			r.extends++
			r.rechargeSeedLocked(seedDigest)
		}
		// Evict only for what no trim can free; memos over the budget
		// are trimmed by the next check request's Settle, so no waiter
		// of this build waits for other sessions' queries.
		r.evictLocked(e)
	}
	c.entry, c.err = e, err
	r.mu.Unlock()
	close(c.done)
}

// updateGaugesLocked refreshes the residency gauges after any mutation
// of the cache's contents or accounting.
func (r *Registry) updateGaugesLocked() {
	r.updateByteGauges()
	regUniversesGauge.Set(int64(len(r.entries)))
}

func (r *Registry) updateByteGauges() {
	memo := r.memo.Load()
	regBytesGauge.Set(r.bytes.Load() + memo)
	memoBytesGauge.Set(memo)
}

// materialize produces the session for a miss by the cheapest means
// available, reporting how (an entry Source) and, for extensions, the
// digest of the seed entry whose accounting must be re-charged.
func (r *Registry) materialize(ctx context.Context, spec hpl.UniverseSpec, digest string) (ck *hpl.Checker, source, seedDigest string, err error) {
	if r.snapDir != "" {
		if ck := r.loadSnapshot(spec, digest); ck != nil {
			return ck, SourceSnapshot, "", nil
		}
	}
	if seed := r.findSeed(spec); seed != nil {
		ck, err := r.extendFrom(ctx, seed, spec)
		switch {
		case err == nil:
			return ck, SourceExtend, seed.Digest, nil
		case errors.Is(err, hpl.ErrUniverseTooLarge) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// A full build would only re-derive the same outcome.
			return nil, SourceExtend, "", err
		}
		// Anything else (a seed that cannot extend) falls through to a
		// full build.
	}
	if r.injectFault != nil {
		if ferr := r.injectFault("build", digest); ferr != nil {
			return nil, SourceBuild, "", ferr
		}
	}
	ck, err = r.buildFn(ctx, spec)
	return ck, SourceBuild, "", err
}

// familyKey identifies specs that differ only in their event bound —
// the universes one of which incremental extension can grow into
// another. The key is the digest of the canonical spec with the bound
// pinned to an arbitrary fixed value.
func familyKey(spec hpl.UniverseSpec) string {
	c := spec.Canonical()
	c.MaxEvents = 1
	return c.Digest()
}

// findSeed returns the cached entry of spec's family with the largest
// event bound strictly below spec's, or nil. It does not touch LRU
// order: seeding an extension is not a client hit on the seed.
func (r *Registry) findSeed(spec hpl.UniverseSpec) *Entry {
	target := spec.Canonical()
	fam := familyKey(spec)
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *Entry
	bestBound := -1
	for _, e := range r.entries {
		c := e.Spec.Canonical()
		if c.MaxEvents >= target.MaxEvents || c.MaxEvents <= bestBound || familyKey(e.Spec) != fam {
			continue
		}
		best, bestBound = e, c.MaxEvents
	}
	return best
}

// extendFrom grows the seed's universe to spec's bound incrementally —
// enumerating only the frontier beyond the seed's bound — and opens a
// fresh session over the result. The seed entry is untouched.
func (r *Registry) extendFrom(ctx context.Context, seed *Entry, spec hpl.UniverseSpec) (*hpl.Checker, error) {
	opts := append(spec.EnumOptions(),
		hpl.WithContext(ctx), hpl.WithParallelism(r.buildPar))
	u, err := hpl.ExtendUniverse(seed.Checker.Universe(), opts...)
	if err != nil {
		return nil, err
	}
	return hpl.NewChecker(u, spec.Predicates()...), nil
}

// rechargeSeedLocked re-charges a still-cached extension seed to its
// session-only estimate: the extended entry now accounts their shared
// structure (prefix tree, interned events), and double-charging it
// would evict a neighbor for bytes that exist once.
func (r *Registry) rechargeSeedLocked(seedDigest string) {
	seed, ok := r.entries[seedDigest]
	if !ok {
		return // evicted while the extension ran; its bytes are gone
	}
	if b := EstimateSessionBytes(seed.Checker.Universe()); b < seed.fixed {
		r.bytes.Add(b - seed.fixed)
		seed.setFixed(b)
	}
}

// snapshotPath is the digest-named snapshot file of a universe.
func (r *Registry) snapshotPath(digest string) string {
	return filepath.Join(r.snapDir, digest+".hplsnap")
}

// loadSnapshot satisfies a cold miss from disk, returning nil (and
// counting a snapshot miss) when no usable snapshot exists. Corrupt,
// truncated, or mismatched files are removed so the rebuild can replace
// them. Loads are serialized per digest by the caller's singleflight.
func (r *Registry) loadSnapshot(spec hpl.UniverseSpec, digest string) *hpl.Checker {
	miss := func() *hpl.Checker {
		r.mu.Lock()
		r.snapshotMisses++
		r.mu.Unlock()
		return nil
	}
	path := r.snapshotPath(digest)
	f, err := os.Open(path)
	if err != nil {
		return miss()
	}
	defer f.Close()
	if r.injectFault != nil {
		// A simulated read fault behaves exactly like corruption: the
		// file is removed and the miss falls through to a build.
		if ferr := r.injectFault("snapshot-load", digest); ferr != nil {
			os.Remove(path)
			return miss()
		}
	}
	u, stored, err := hpl.ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil || stored != digest {
		os.Remove(path)
		return miss()
	}
	sys, err := spec.System()
	if err != nil {
		return miss()
	}
	// Re-bind the protocol so the loaded universe can seed extensions.
	u.BindProtocol(sys)
	r.mu.Lock()
	r.snapshotHits++
	r.mu.Unlock()
	return hpl.NewChecker(u, spec.Predicates()...)
}

// writeSnapshot persists an entry's universe as <digest>.hplsnap via
// temp-file-and-rename, so readers never observe a partial file.
// Persistence is best effort: failures are counted, not fatal — the
// cache stays correct without the disk.
func (r *Registry) writeSnapshot(e *Entry) {
	fail := func() {
		r.mu.Lock()
		r.snapErrors++
		r.mu.Unlock()
	}
	if r.injectFault != nil {
		if ferr := r.injectFault("snapshot-write", e.Digest); ferr != nil {
			fail()
			return
		}
	}
	tmp, err := os.CreateTemp(r.snapDir, "."+e.Digest+".tmp-*")
	if err != nil {
		fail()
		return
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<20)
	err = hpl.WriteSnapshot(w, e.Checker.Universe(), e.Digest)
	if err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil || os.Rename(tmp.Name(), r.snapshotPath(e.Digest)) != nil {
		fail()
	}
}

// Settle charges the growth of e's session memo to the cache and
// brings the cache back within its budget; the server calls it after
// answering each check request. Within the budget it takes no lock.
// Over it, Settle trims sessions' memos, least recently used first,
// until the cache fits: a trim drops every truth vector but the atoms'
// and constants', and a later query recomputes what it needs, so no
// verdict changes. Universes are evicted only while the bytes no trim
// can free — the fixed estimates and the pinned vectors — exceed the
// budget, and e never: a universe is not evicted for its own memo.
func (r *Registry) Settle(e *Entry) {
	r.memo.Add(e.chargeMemo())
	if r.bytes.Load()+r.memo.Load() <= r.maxBytes {
		r.updateByteGauges()
		return
	}
	r.mu.Lock()
	lru := make([]*Entry, 0, r.lru.Len())
	for el := r.lru.Back(); el != nil; el = el.Prev() {
		lru = append(lru, el.Value.(*Entry))
	}
	r.mu.Unlock()

	// Trim without the registry lock: TrimMemo waits for any formula
	// being interned on its session, and lookups must not wait with it.
	for _, v := range lru {
		if r.bytes.Load()+r.memo.Load() <= r.maxBytes {
			break
		}
		v.Checker.Evaluator().TrimMemo()
		r.memo.Add(v.chargeMemo())
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(e)
}

// evictLocked evicts universes, least recently used first and never
// keep, while the fixed estimates and pinned memo bytes of the cached
// universes exceed the budget. A new universe's estimate was checked
// against the whole budget, so keep fits by itself.
func (r *Registry) evictLocked(keep *Entry) {
	floor := r.bytes.Load()
	for _, v := range r.entries {
		floor += v.Checker.Evaluator().PinnedBytes()
	}
	for el := r.lru.Back(); el != nil && floor > r.maxBytes; {
		victim := el.Value.(*Entry)
		el = el.Prev()
		if victim == keep {
			continue
		}
		r.lru.Remove(victim.elem)
		delete(r.entries, victim.Digest)
		fixed, memo := victim.uncharge()
		r.bytes.Add(-fixed)
		r.memo.Add(-memo)
		floor -= fixed + victim.Checker.Evaluator().PinnedBytes()
		r.evictions++
		regEvictions.Inc()
	}
	r.updateGaugesLocked()
}

// Cached reports whether the spec's universe is currently resident,
// without touching LRU order or counters.
func (r *Registry) Cached(spec hpl.UniverseSpec) bool {
	digest := r.clamp(spec).Digest()
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[digest]
	return ok
}

// Stats is a registry-wide snapshot.
type Stats struct {
	// Universes counts resident universes; Bytes their total
	// (structure, tables and memos as they are now, see Entry.Bytes)
	// against the MaxBytes budget.
	Universes int   `json:"universes"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
	// Builds counts enumerations from scratch (SourceBuild
	// materializations, failed ones included; not snapshot loads or
	// extensions), Hits and Misses cache lookups, Evictions LRU
	// removals.
	Builds    int64 `json:"builds"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// InflightBuilds counts builds currently running.
	InflightBuilds int `json:"inflightBuilds"`
	// SnapshotHits counts cold misses served from the snapshot
	// directory, SnapshotMisses the misses that fell through to an
	// extension or build, SnapshotErrors failed best-effort writes.
	SnapshotHits   int64 `json:"snapshotHits"`
	SnapshotMisses int64 `json:"snapshotMisses"`
	SnapshotErrors int64 `json:"snapshotErrors"`
	// Extends counts universes materialized by incrementally extending a
	// cached universe of the same family at a smaller event bound.
	Extends int64 `json:"extends"`
}

// Stats returns a consistent snapshot.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	bytes := r.bytes.Load()
	for _, e := range r.entries {
		bytes += e.Checker.Evaluator().MemoBytes()
	}
	return Stats{
		Universes:      len(r.entries),
		Bytes:          bytes,
		MaxBytes:       r.maxBytes,
		Builds:         r.builds,
		Hits:           r.hits,
		Misses:         r.misses,
		Evictions:      r.evictions,
		InflightBuilds: len(r.calls),
		SnapshotHits:   r.snapshotHits,
		SnapshotMisses: r.snapshotMisses,
		SnapshotErrors: r.snapErrors,
		Extends:        r.extends,
	}
}

// EstimateBytes estimates the resident footprint of a universe and the
// tables a hot session builds over it: per member, the universe's
// columns, hash-index slot and a share of the partition tables and
// transition graph. It is an estimate — the cache budget is advisory
// accounting, not an allocator — but it scales with the real cost
// driver (members) and errs high. The session's truth vectors are not
// estimated: Entry.Bytes adds the bytes its memo holds.
func EstimateBytes(u *hpl.Universe) int64 {
	return EstimateStructureBytes(u) + EstimateSessionBytes(u)
}

// EstimateStructureBytes is the structural half of EstimateBytes: the
// columns and hash index the universe itself owns. When one universe is
// extended into another they share this structure, so only the larger
// entry is charged for it.
func EstimateStructureBytes(u *hpl.Universe) int64 {
	n := int64(u.Len())
	// perMember covers the columns — the hash (16 bytes), and the
	// length, parent, last-event and state-vector identifiers (4 each) —
	// and the member's view slot (8). The views themselves are built on
	// demand, and a session over the spec vocabulary, whose atoms fold
	// the prefix index, builds only its witnesses' prefix chains; so
	// nothing the universe keeps grows with its members' event counts.
	// perHashSlot charges the member-hash index (a map[Hash128]int32
	// bucket entry): the universe builds it lazily on the first IndexOf,
	// which any Holds or Contains query on the session triggers, and the
	// cache charges it up front so an entry's charge does not depend on
	// the queries it has seen.
	const perMember, perHashSlot = 40, 40
	b := n * (perMember + perHashSlot)
	if u.IsQuotient() {
		// Orbit-size table: one int64 per member.
		b += n * 8
	}
	return b
}

// EstimateSessionBytes is the per-session half of EstimateBytes: the
// partition tables and transition graph a hot session grows per
// member. The memoized truth vectors are charged as they are held
// (Entry.Bytes), not estimated here. An extension seed keeps paying
// this — its session stays independently queryable — after its
// structure is re-charged to the extended entry.
func EstimateSessionBytes(u *hpl.Universe) int64 {
	const perMember = 96
	return int64(u.Len()) * perMember
}
