package universe

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hpl/internal/trace"
)

// The enumeration engine builds the universe's prefix tree one level at
// a time, with a pool of workers, around structural sharing and
// incremental state:
//
//   - Members are emitted in the prefix tree's level order, which is
//     the universe's member order: by length, then by the parent's
//     member index, then by hash among siblings. The engine keeps the
//     members as columns — hash, length, parent, interned last event,
//     interned local-state vector — and a level is expanded by reading
//     the columns of the levels before it. Workers take contiguous
//     ranges of level L, expand each parent into a buffer of their
//     range and hash-sort that parent's few children; the buffers are
//     then appended to the columns in range order. So the order depends
//     only on the member set, never on the worker count or on the order
//     of a protocol's Steps, and there is no global sort and no gather.
//   - Expanding a member never replays or copies its event history: one
//     allocation-free walk of the parent column recovers the
//     per-process event counts, send counters, and in-flight messages.
//   - A child's hash is its parent's extended by one event, built on
//     the stack from identifiers precomputed up to the event bound; the
//     event is interned in a table the workers share, behind a
//     per-worker cache. No trace.Computation is built: the universe's
//     member views are made on demand (see Universe.At).
//   - No seen-set: no two emitted members are the same computation. The
//     search tree is the universe's prefix tree — a member is its
//     parent plus one event — so two members can be the same sequence
//     only if one parent yields the same event twice. Its deliveries
//     cannot, since each names its own message, and stepActions
//     collapses spontaneous actions whose events coincide where they
//     arise. By induction on length, then, distinct members are
//     distinct sequences. Under WithSymmetry the emitted members are
//     moreover in distinct orbits: if σ maps member x to member y, it
//     fixes their longest common prefix c, so σ is in c's stabilizer
//     and maps x's child of c to y's — two siblings in one stabilizer
//     orbit, of which symCanonical keeps only one. Under
//     WithCommutation the engine keeps only greedy linearizations and
//     records every other child as a merge edge to its class (see
//     commute.go). An extension (Extend) starts from a copy of the
//     base's columns and expands its last level, so it appends exactly
//     the levels a from-scratch build of the larger bound would. What
//     remains is the ~2^-128 assumption that distinct members of one
//     length hash apart: siblings are checked where they are sorted
//     (sortSiblings), the rest where the hash index is built
//     (ErrHashCollision).
//   - Protocol transitions (Steps/AfterStep/Deliver) are cached per
//     worker keyed by interned state-vector identifiers: a Protocol is
//     one finite state machine per process, so its transition functions
//     are pure in (process, state) and each distinct transition is
//     computed once per worker.
//
// Enumeration with any parallelism therefore yields byte-identical
// results — same member order, hence identical Partition tables and
// Transitions graph. The differential tests in differential_test.go
// hold the engine to that contract, against both its own sequential
// runs and a replay-based reference enumerator.

// ErrAmbiguousStep reports a protocol that, in one local state, enables
// two actions with the same event but different successor states: its
// event sequence does not determine its state, so its computations are
// not a function of their events.
var ErrAmbiguousStep = errors.New("universe: equal events lead to different states")

// record is one child as a worker emits it into its range's buffer: its
// hash, its parent's member index, its last event's identifier in the
// engine's shared event table and its interned local-state vector.
type record struct {
	hash        trace.Hash128
	par, ev, sv int32
}

// engineEvent is an entry of the engine's shared event table: the event,
// the indexes of its process and peer (-1 when it has none), which the
// chain walk needs, and its class key (see eventKey).
type engineEvent struct {
	trace.Event
	proc, peer int32
	key        trace.Hash128
}

// eventLog interns events for all workers. Interning takes the lock,
// but workers reach it only on a miss in their own cache (see
// worker.internEvent), once per distinct event per worker. Readers
// load the published table without locking: it only ever grows, an
// identifier is published before any record names it, and a reader
// only looks up identifiers it read from such a record.
type eventLog struct {
	mu  sync.Mutex
	tab eventTable
	pub atomic.Pointer[[]engineEvent]
}

// table returns the published events.
func (l *eventLog) table() []engineEvent {
	if t := l.pub.Load(); t != nil {
		return *t
	}
	return nil
}

// intern returns ev's identifier, publishing ev when it is new.
func (l *eventLog) intern(ev *trace.Event, proc, peer int32) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.tab.intern(ev)
	if t := l.table(); int(id) == len(t) {
		t = append(t, engineEvent{Event: *ev, proc: proc, peer: peer, key: eventKey(ev)})
		l.pub.Store(&t)
	}
	return id
}

type engine struct {
	p     Protocol
	cfg   config
	procs []trace.ProcID
	// procIdx indexes procs by identifier.
	procIdx map[trace.ProcID]int32
	// eventIDs[p][k] / msgIDs[p][k] are the canonical identifiers of
	// the k-th event on / message from procs[p], precomputed up to the
	// event bound so child construction allocates no strings.
	eventIDs [][]trace.EventID
	msgIDs   [][]trace.MsgID
	states   *stateTable

	// grp is the compiled symmetry group under WithSymmetry, nil
	// otherwise. When set, expand keeps only the orbit-canonical child
	// of each sibling orbit (see symCanonical), so the engine emits one
	// representative per renaming orbit.
	grp *symGroup

	// The members emitted so far, in member order, as columns: hash,
	// length, parent member index (-1 for null), last event in events
	// (-1 for null) and interned state vector, plus under WithSymmetry
	// the support masks — bit i set when procs[i] appears as the Proc or
	// Peer of some event — which identify a member's stabilizer (the
	// pointwise stabilizer of the support) and hence its orbit size. The
	// columns grow only between levels, so workers expanding a level
	// read them without locks.
	hash   []trace.Hash128
	length []int32
	par    []int32
	ev     []int32
	sv     []int32
	mask   []uint64
	events eventLog

	// Under WithCommutation, ckey is each member's class key (see
	// classKey), merges[r] holds the merge edges of range r of the level
	// being expanded, and dagSrc/dagDst the resolved merge edges so far,
	// in source order. See commute.go.
	ckey           []trace.Hash128
	merges         [][]mergeEdge
	dagSrc, dagDst []int32

	// emitted counts the members (the cap and progress read it) and
	// expanded the members whose children have been emitted.
	emitted  atomic.Int64
	expanded atomic.Int64
	// failed is set, and err holds the first error, once any worker
	// fails; the other workers then stop at their next member.
	failed atomic.Bool
	errMu  sync.Mutex
	err    error

	// Symmetry-filter totals, flushed from worker-local counters when
	// each worker finishes a level; symNanos is measured only under
	// WithTrace.
	symCheckN  atomic.Int64
	symRejectN atomic.Int64
	symNanos   atomic.Int64

	// progMu serializes the user's progress callback.
	progMu sync.Mutex
}

// worker holds one worker's scratch buffers and lock-free caches over
// the engine's shared state.
type worker struct {
	e *engine

	// out collects the children of the range being expanded, and merges
	// its merge edges under WithCommutation; both keep their capacity
	// from range to range.
	out    []record
	merges []mergeEdge

	// local caches the shared event table: glob[id] is the shared
	// identifier of the event local interned as id.
	local eventTable
	glob  []int32

	// Chain-walk scratch, reused across expansions. events is the shared
	// event table as of the last walk; inflight holds identifiers into it.
	events   []engineEvent
	evCount  []int32
	nextMsg  []int32
	inflight []int32
	received []trace.MsgID

	// Worker-local caches; entries are immutable once computed, so no
	// locks after warmup.
	vecs    map[int32][]string
	steps   map[stepsKey][]Action
	stepSV  map[actKey]int32
	delivSV map[delivKey]int32
	// stabCache caches, per support mask, the non-identity group
	// elements fixing every supported process — the stabilizer expand
	// filters children against. Nil unless the engine has a group.
	stabCache map[uint64][]int32

	svScratch []string
	buf       []byte

	// Symmetry-filter tallies, local so the hot path pays plain
	// increments; flushed into the engine when a level ends.
	symChecks  int64
	symRejects int64
	symNanos   int64
}

type stepsKey struct{ sv, proc int32 }

type actKey struct{ sv, proc, act int32 }

type delivKey struct {
	sv, dst, from int32
	tag           string
}

// EnumerateWith exhaustively generates every computation of the protocol
// under the given options (including the empty computation and every
// prefix, since the search tree is rooted at null). Without options it
// uses DefaultMaxEvents, no cap, and a single worker.
//
// The resulting universe is canonical: its members are in the prefix
// tree's level order — by event count, then the parent's member index,
// then 128-bit canonical hash among siblings — so the result is
// identical for every parallelism level. Enumeration fails with
// ErrTooLarge when the universe exceeds the WithCap bound, and with
// ctx.Err() when the WithContext context is cancelled.
func EnumerateWith(p Protocol, opts ...Option) (*Universe, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return enumerate(p, cfg, nil)
}

// seedState re-seeds an enumeration from an existing universe: svs[i]
// is the interned identifier (in states) of base member i's local-state
// vector. Extend constructs it; enumerate consumes it by starting from
// the base's columns and expanding its last level — its members of
// exactly maxEvents length — instead of the null computation.
// Completeness below the old bound is what makes this sound: a bound-n
// universe contains every computation of length < n together with all
// of their children, so only the length-n members have unexplored
// extensions.
type seedState struct {
	base   *Universe
	states *stateTable
	svs    []int32
}

// enumerate is the engine body shared by EnumerateWith (seed == nil)
// and Extend.
func enumerate(p Protocol, cfg config, seed *seedState) (*Universe, error) {
	procs := p.Procs()
	all := trace.NewProcSet(procs...)
	n := len(procs)
	procIdx := make(map[trace.ProcID]int32, n)
	for i, id := range procs {
		procIdx[id] = int32(i)
	}
	grp, err := newSymGroup(cfg.sym, procs, procIdx)
	if err != nil {
		return nil, err
	}
	if cfg.commute && grp != nil {
		return nil, fmt.Errorf("%w: it cannot be combined with a symmetry quotient", ErrCommutationQuotient)
	}
	if grp != nil {
		// The root (empty computation) must be stabilized by the whole
		// group, which reduces to equal initial states within each class.
		// Equivariance of Steps/AfterStep/Deliver cannot be checked here
		// and remains the caller's assertion.
		for _, cl := range cfg.sym.classes {
			init0 := p.Init(cl[0])
			for _, q := range cl[1:] {
				if p.Init(q) != init0 {
					return nil, fmt.Errorf("universe: symmetry class %v is not interchangeable: Init(%s)=%q but Init(%s)=%q",
						cl, cl[0], init0, q, p.Init(q))
				}
			}
		}
	}
	// The ID tables are capped: a pathological WithMaxEvents (user
	// flags reach it) must not allocate maxEvents strings per process
	// up front when the reachable universe is far smaller. Positions
	// past the cap fall back to on-demand construction — still correct,
	// just not allocation-free.
	idTableLen := cfg.maxEvents
	if idTableLen > idTableMax {
		idTableLen = idTableMax
	}
	eventIDs := make([][]trace.EventID, n)
	msgIDs := make([][]trace.MsgID, n)
	for i, id := range procs {
		eventIDs[i] = make([]trace.EventID, idTableLen)
		msgIDs[i] = make([]trace.MsgID, idTableLen)
		for k := 0; k < idTableLen; k++ {
			eventIDs[i][k] = trace.NewEventID(id, k)
			msgIDs[i][k] = trace.NewMsgID(id, k)
		}
	}

	e := &engine{
		p:        p,
		cfg:      cfg,
		procs:    procs,
		procIdx:  procIdx,
		eventIDs: eventIDs,
		msgIDs:   msgIDs,
		grp:      grp,
	}
	// lo is the first member of the level to expand next.
	lo := 0
	if seed != nil {
		// Start from the base's columns. Its events join the shared
		// table first and in order, so they keep their identifiers and
		// the event column is copied as is. The emit counter starts at
		// the base size so cap and progress semantics match a
		// from-scratch run of the larger bound.
		b := seed.base
		bx := b.prefixIndex()
		e.states = seed.states
		e.hash = slices.Clone(b.hash)
		e.length = slices.Clone(b.length)
		e.par = slices.Clone(bx.parent)
		e.ev = slices.Clone(bx.event)
		e.sv = slices.Clone(seed.svs)
		for id := range bx.events {
			ev := &bx.events[id]
			e.events.intern(ev, e.procOf(ev.Proc), e.procOf(ev.Peer))
		}
		lo = len(e.hash)
		for lo > 0 && int(e.length[lo-1]) == b.maxEvents {
			lo--
		}
		if grp != nil {
			e.mask = make([]uint64, len(e.hash))
			for j := 1; j < len(e.hash); j++ {
				e.mask[j] = e.childMask(e.par[j], e.ev[j])
			}
		}
	} else {
		vec0 := make([]string, n)
		for i, id := range procs {
			vec0[i] = p.Init(id)
		}
		e.states = newStateTable()
		sv0, _ := e.states.intern(vec0, nil)
		e.hash = []trace.Hash128{trace.Empty().Hash()}
		e.length, e.par, e.ev, e.sv = []int32{0}, []int32{-1}, []int32{-1}, []int32{sv0}
		if grp != nil {
			e.mask = []uint64{0}
		}
		if cfg.commute {
			e.ckey = []trace.Hash128{{}}
		}
	}
	e.emitted.Store(int64(len(e.hash)))
	e.expanded.Store(int64(lo))

	workers := make([]*worker, cfg.parallelism)
	for w := range workers {
		workers[w] = &worker{
			e:       e,
			evCount: make([]int32, n),
			nextMsg: make([]int32, n),
			vecs:    make(map[int32][]string),
			steps:   make(map[stepsKey][]Action),
			stepSV:  make(map[actKey]int32),
			delivSV: make(map[delivKey]int32),
		}
		if grp != nil {
			workers[w].stabCache = make(map[uint64][]int32)
		}
	}
	expandSp := cfg.trace.Start("enumerate.expand")
	for hi := len(e.hash); lo < hi && int(e.length[lo]) < cfg.maxEvents; lo, hi = hi, len(e.hash) {
		e.appendLevel(e.expandLevel(workers, int32(lo), int32(hi)))
		if e.err == nil && cfg.commute {
			e.resolve(hi)
		}
		if e.err != nil {
			break
		}
	}
	phaseExpand.ObserveDuration(expandSp.End())
	if n := e.symCheckN.Load(); n > 0 {
		symChecksTotal.Add(n)
		symRejectsTotal.Add(e.symRejectN.Load())
		// Filter time is a sub-span of expand (workers time it inline),
		// recorded separately so quotient builds can see its share.
		cfg.trace.AddN("symmetry.filter", n, time.Duration(e.symNanos.Load()))
	}
	if e.err != nil {
		return nil, e.err
	}

	canonSp := cfg.trace.Start("enumerate.canonicalize")
	u, err := e.universe(all, seed)
	if err != nil {
		return nil, err
	}
	// The trace rides on the universe so the lazy partition/transition
	// builds and snapshot encodes this build triggers later join its
	// phase breakdown.
	u.tr = cfg.trace
	phaseCanonicalize.ObserveDuration(canonSp.End())
	engineBuilds.Inc()
	engineMembers.Add(int64(u.Len()))
	return u, nil
}

// MustEnumerateWith is EnumerateWith for configurations known to
// succeed; it panics on error.
func MustEnumerateWith(p Protocol, opts ...Option) *Universe {
	u, err := EnumerateWith(p, opts...)
	if err != nil {
		panic(err)
	}
	return u
}

// idTableMax caps the precomputed per-process identifier tables;
// positions beyond it (only reachable under an absurd WithMaxEvents)
// construct identifiers on demand.
const idTableMax = 4096

// eventID returns the canonical identifier of the k-th event on
// procs[pi], from the precomputed table when possible.
func (e *engine) eventID(pi, k int32) trace.EventID {
	if int(k) < len(e.eventIDs[pi]) {
		return e.eventIDs[pi][k]
	}
	return trace.NewEventID(e.procs[pi], int(k))
}

// procOf returns the index of process p, or -1 when p is empty or not
// a process of the protocol.
func (e *engine) procOf(p trace.ProcID) int32 {
	if i, ok := e.procIdx[p]; ok {
		return i
	}
	return -1
}

// msgID returns the canonical identifier of the k-th message from
// procs[pi], from the precomputed table when possible.
func (e *engine) msgID(pi, k int32) trace.MsgID {
	if int(k) < len(e.msgIDs[pi]) {
		return e.msgIDs[pi][k]
	}
	return trace.NewMsgID(e.procs[pi], int(k))
}

// fail records err as the run's error unless one is recorded already,
// and tells the other workers to stop.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.failed.Store(true)
}

// rangesPerWorker sizes a level's ranges: enough of them that workers
// finishing early find more to take, few enough that claiming a range
// and copying out its buffer stay cheap.
const rangesPerWorker = 8

// expandLevel expands the members [lo, hi) of one level and returns
// their children, one buffer per contiguous range of parents, in range
// order: concatenated, they are the next level in member order. Each
// buffer is allocated at its exact size once its range is done, so a
// level's children are held once, not in slices grown by doubling.
func (e *engine) expandLevel(workers []*worker, lo, hi int32) [][]record {
	size := max(64, (hi-lo)/int32(len(workers)*rangesPerWorker))
	bufs := make([][]record, (hi-lo+size-1)/size)
	if e.cfg.commute {
		e.merges = make([][]mergeEdge, len(bufs))
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for _, w := range workers[:min(len(workers), len(bufs))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.events = e.events.table()
			for r := next.Add(1) - 1; int(r) < len(bufs) && !e.failed.Load(); r = next.Add(1) - 1 {
				a := lo + r*size
				w.out, w.merges = w.out[:0], w.merges[:0]
				if err := w.expandRange(a, min(a+size, hi)); err != nil {
					e.fail(err)
				}
				bufs[r] = append(make([]record, 0, len(w.out)), w.out...)
				if e.cfg.commute {
					e.merges[r] = slices.Clone(w.merges)
				}
			}
			if w.symChecks > 0 {
				e.symCheckN.Add(w.symChecks)
				e.symRejectN.Add(w.symRejects)
				e.symNanos.Add(w.symNanos)
				w.symChecks, w.symRejects, w.symNanos = 0, 0, 0
			}
		}()
	}
	wg.Wait()
	return bufs
}

// appendLevel appends a level's buffers to the columns, growing each
// column once to its exact new size.
func (e *engine) appendLevel(bufs [][]record) {
	if e.err != nil {
		return
	}
	k := 0
	for _, b := range bufs {
		k += len(b)
	}
	l := e.length[len(e.length)-1] + 1
	e.hash, e.length = grow(e.hash, k), grow(e.length, k)
	e.par, e.ev, e.sv = grow(e.par, k), grow(e.ev, k), grow(e.sv, k)
	if e.grp != nil {
		e.mask = grow(e.mask, k)
	}
	var evs []engineEvent
	if e.cfg.commute {
		e.ckey = grow(e.ckey, k)
		evs = e.events.table()
	}
	for r, b := range bufs {
		for i := range b {
			c := &b[i]
			e.hash = append(e.hash, c.hash)
			e.length = append(e.length, l)
			e.par = append(e.par, c.par)
			e.ev = append(e.ev, c.ev)
			e.sv = append(e.sv, c.sv)
			if e.grp != nil {
				e.mask = append(e.mask, e.childMask(c.par, c.ev))
			}
			if evs != nil {
				e.ckey = append(e.ckey, classKey(e.ckey[c.par], evs[c.ev].key))
			}
		}
		bufs[r] = nil
	}
}

// childMask returns the support mask of member par's computation
// extended by the engine event ev.
func (e *engine) childMask(par, ev int32) uint64 {
	ee := &e.events.table()[ev]
	mask := e.mask[par] | 1<<uint(ee.proc)
	if ee.peer >= 0 {
		mask |= 1 << uint(ee.peer)
	}
	return mask
}

// grow returns s with capacity for exactly n more elements.
func grow[T any](s []T, n int) []T {
	return append(make([]T, 0, len(s)+n), s...)
}

// expandRange expands the members [a, b), appending each one's children
// to w.out in hash order.
func (w *worker) expandRange(a, b int32) error {
	e := w.e
	for j := a; j < b && !e.failed.Load(); j++ {
		if err := e.cfg.ctx.Err(); err != nil {
			return err
		}
		k := len(w.out)
		if err := w.expand(j); err != nil {
			return err
		}
		kids := w.out[k:]
		if err := sortSiblings(kids, func(i int) string { return e.key(kids[i].par, kids[i].ev) }); err != nil {
			return err
		}
		count := e.emitted.Add(int64(len(kids)))
		e.expanded.Add(1)
		if e.cfg.capN > 0 && count > int64(e.cfg.capN) {
			return fmt.Errorf("%w: more than %d computations", ErrTooLarge, e.cfg.capN)
		}
		if every := int64(e.cfg.progressEvery); e.cfg.progress != nil && count/every != (count-int64(len(kids)))/every {
			e.reportProgress()
		}
	}
	return nil
}

// expand appends the children of member j to w.out.
func (w *worker) expand(j int32) error {
	e := w.e
	w.loadChain(j)
	hash, sv := e.hash[j], e.sv[j]
	var mask uint64
	if e.grp != nil {
		mask = e.mask[j]
	}
	// Deliveries of in-flight messages.
	for _, id := range w.inflight {
		send := &w.events[id]
		dst := send.peer
		csv := w.deliverChild(sv, dst, send.proc, send.Tag)
		if csv < 0 {
			continue
		}
		ev := trace.Event{
			ID:   e.eventID(dst, w.evCount[dst]),
			Proc: send.Peer,
			Kind: trace.KindReceive,
			Msg:  send.Msg,
			Peer: send.Proc,
			Tag:  send.Tag,
		}
		if e.cfg.commute && !w.greedy(j, dst, id) {
			w.merge(j, &ev)
			continue
		}
		// Receive children need no canonicity check: the message's sender
		// and addressee both already appear in the parent's support (the
		// send event carries them as Proc and Peer), so every stabilizer
		// element fixes the receive event — its sibling orbit is itself.
		w.out = append(w.out, w.child(hash, j, &ev, dst, send.proc, csv))
	}
	// Spontaneous steps.
	for pi := range e.procs {
		pid := e.procs[pi]
		acts, err := w.stepActions(sv, int32(pi))
		if err != nil {
			return err
		}
		for ai, a := range acts {
			ev := trace.Event{
				ID:   e.eventID(int32(pi), w.evCount[pi]),
				Proc: pid,
				Kind: a.Kind,
				Tag:  a.Tag,
			}
			qi := int32(-1)
			if a.Kind == trace.KindSend {
				qi = e.procIdx[a.To]
				ev.Msg = e.msgID(int32(pi), w.nextMsg[pi])
				ev.Peer = a.To
			}
			if e.cfg.commute && !w.greedy(j, int32(pi), -1) {
				w.merge(j, &ev)
				continue
			}
			if e.grp != nil {
				w.symChecks++
				// Per-check wall time is only sampled under WithTrace;
				// untraced runs pay two plain increments here.
				var t0 time.Time
				if e.cfg.trace != nil {
					t0 = time.Now()
				}
				canon := w.symCanonical(hash, mask, ev, int32(pi), qi, w.evCount[pi], w.nextMsg[pi])
				if e.cfg.trace != nil {
					w.symNanos += int64(time.Since(t0))
				}
				if !canon {
					w.symRejects++
					continue
				}
			}
			w.out = append(w.out, w.child(hash, j, &ev, int32(pi), qi, w.stepChild(sv, int32(pi), ai, a)))
		}
	}
	return nil
}

// child returns the record of member par's computation, whose hash is
// hash, extended by ev on procs[pi] (with peer procs[qi], or qi = -1).
func (w *worker) child(hash trace.Hash128, par int32, ev *trace.Event, pi, qi, sv int32) record {
	return record{hash: hash.ExtendEvent(*ev), par: par, ev: w.internEvent(ev, pi, qi), sv: sv}
}

// internEvent returns ev's identifier in the shared event table,
// through the worker's own cache.
func (w *worker) internEvent(ev *trace.Event, pi, qi int32) int32 {
	if id := w.local.intern(ev); int(id) < len(w.glob) {
		return w.glob[id]
	}
	g := w.e.events.intern(ev, pi, qi)
	w.glob = append(w.glob, g)
	return g
}

// symCanonical reports whether extending the computation whose hash is
// parent (and whose support is mask)
// by ev yields the orbit-canonical child. The siblings competing with
// c+ev are exactly {c + σ·ev : σ ∈ Stab(c)} — applying a stabilizer
// element fixes the prefix and renames only the new event — and the
// canonical one is the child with the least hash. σ·ev keeps ev's
// sequence numbers: σ stabilizes the parent, so the per-process event
// and send counts at σ's images equal those at the originals.
//
// pi and qi are the proc indexes of ev.Proc and ev.Peer (qi < 0 when
// there is no peer that can move); k is ev's per-process sequence
// number and j the per-sender message sequence number for sends.
func (w *worker) symCanonical(parent trace.Hash128, mask uint64, ev trace.Event, pi, qi, k, j int32) bool {
	e := w.e
	stab := w.stabFor(mask)
	if len(stab) == 0 {
		return true
	}
	newBits := uint64(1) << uint(pi)
	if qi >= 0 {
		newBits |= 1 << uint(qi)
	}
	var h trace.Hash128
	hashed := false
	for _, gi := range stab {
		if e.grp.moved[gi]&newBits == 0 {
			continue // σ fixes the new event: the sibling is c+ev itself
		}
		if !hashed {
			h = parent.ExtendEvent(ev)
			hashed = true
		}
		perm := e.grp.perms[gi]
		sev := ev
		spi := perm[pi]
		sev.Proc = e.procs[spi]
		sev.ID = e.eventID(spi, k)
		if ev.Kind == trace.KindSend {
			sev.Msg = e.msgID(spi, j)
			sev.Peer = e.procs[perm[qi]]
		}
		// Strict less: on the ~2^-128 event of a full hash tie between
		// distinct siblings both survive, and sortSiblings fails the
		// run on their equal hashes with ErrHashCollision.
		if parent.ExtendEvent(sev).Less(h) {
			return false
		}
	}
	return true
}

// stabFor returns the non-identity group elements fixing every process
// in mask — the stabilizer of any computation with that support —
// through the worker-local cache.
func (w *worker) stabFor(mask uint64) []int32 {
	if s, ok := w.stabCache[mask]; ok {
		return s
	}
	g := w.e.grp
	s := make([]int32, 0, len(g.perms)-1)
	for gi := 1; gi < len(g.perms); gi++ {
		if g.moved[gi]&mask == 0 {
			s = append(s, int32(gi))
		}
	}
	w.stabCache[mask] = s
	return s
}

// loadChain recovers the expansion state of member j into the worker's
// scratch buffers with one allocation-free walk of the parent column:
// per-process event counts, per-process send counters, and the
// in-flight messages (sends not received; the walk is backwards, so
// receives are seen before their sends).
func (w *worker) loadChain(j int32) {
	for i := range w.evCount {
		w.evCount[i], w.nextMsg[i] = 0, 0
	}
	w.inflight = w.inflight[:0]
	w.received = w.received[:0]
	e := w.e
	for ; e.ev[j] >= 0; j = e.par[j] {
		id := e.ev[j]
		ee := &w.events[id]
		w.evCount[ee.proc]++
		switch ee.Kind {
		case trace.KindSend:
			w.nextMsg[ee.proc]++
			if !w.sawReceive(ee.Msg) {
				w.inflight = append(w.inflight, id)
			}
		case trace.KindReceive:
			w.received = append(w.received, ee.Msg)
		}
	}
}

func (w *worker) sawReceive(m trace.MsgID) bool {
	for _, r := range w.received {
		if r == m {
			return true
		}
	}
	return false
}

// vec returns the state vector for sv through the worker-local cache.
func (w *worker) vec(sv int32) []string {
	if v, ok := w.vecs[sv]; ok {
		return v
	}
	v := w.e.states.vec(sv)
	w.vecs[sv] = v
	return v
}

// stepActions returns the spontaneous actions enabled for procs[pi] in
// state vector sv, computed once per (sv, pi) per worker (see
// enabledActions).
func (w *worker) stepActions(sv, pi int32) ([]Action, error) {
	k := stepsKey{sv, pi}
	if a, ok := w.steps[k]; ok {
		return a, nil
	}
	a, err := enabledActions(w.e.p, w.e.procIdx, w.e.procs[pi], w.vec(sv)[pi])
	if err != nil {
		return nil, err
	}
	w.steps[k] = a
	return a, nil
}

// enabledActions returns the spontaneous actions of process p in the
// local state, as the engine and Walk take them: actions whose events
// coincide are collapsed into the first of them in Steps order (see
// distinctActions), so no computation is extended by the same event
// twice, and every action is checked to be a send to another process
// of procIdx or an internal event.
func enabledActions(pr Protocol, procIdx map[trace.ProcID]int32, p trace.ProcID, state string) ([]Action, error) {
	acts, err := distinctActions(pr, p, state, pr.Steps(p, state))
	if err != nil {
		return nil, err
	}
	for _, a := range acts {
		switch a.Kind {
		case trace.KindSend:
			if _, ok := procIdx[a.To]; !ok || a.To == p {
				return nil, fmt.Errorf("universe: protocol %T: invalid send %s→%s", pr, p, a.To)
			}
		case trace.KindInternal:
		default:
			return nil, fmt.Errorf("universe: protocol %T emitted action of kind %v", pr, a.Kind)
		}
	}
	return acts, nil
}

// distinctActions returns acts less every action whose event equals an
// earlier one's: the engine builds a step's event from its Kind and Tag,
// plus To for a send, so such actions yield the same child. acts itself
// is returned when all are distinct. Collapsing is sound only when the
// merged actions also agree on AfterStep; otherwise the protocol's event
// sequence does not determine its state, and enumeration fails with
// ErrAmbiguousStep.
func distinctActions(pr Protocol, p trace.ProcID, state string, acts []Action) ([]Action, error) {
	var out []Action // nil until the first duplicate
	for i, a := range acts {
		j := slices.IndexFunc(acts[:i], func(b Action) bool {
			return a.Kind == b.Kind && a.Tag == b.Tag && (a.Kind != trace.KindSend || a.To == b.To)
		})
		if j < 0 {
			if out != nil {
				out = append(out, a)
			}
			continue
		}
		if out == nil {
			out = slices.Clone(acts[:i])
		}
		if s1, s2 := pr.AfterStep(p, state, acts[j]), pr.AfterStep(p, state, a); s1 != s2 {
			return nil, fmt.Errorf("%w: protocol %T: %s in state %q: actions %+v and %+v lead to %q and %q",
				ErrAmbiguousStep, pr, p, state, acts[j], a, s1, s2)
		}
	}
	if out == nil {
		return acts, nil
	}
	return out, nil
}

// stepChild returns the interned state vector after procs[pi] performs
// its ai-th enabled action in sv.
func (w *worker) stepChild(sv, pi int32, ai int, a Action) int32 {
	k := actKey{sv, pi, int32(ai)}
	if id, ok := w.stepSV[k]; ok {
		return id
	}
	v := w.vec(sv)
	w.svScratch = append(w.svScratch[:0], v...)
	w.svScratch[pi] = w.e.p.AfterStep(w.e.procs[pi], v[pi], a)
	id, buf := w.e.states.intern(w.svScratch, w.buf)
	w.buf = buf
	w.stepSV[k] = id
	return id
}

// deliverChild returns the interned state vector after procs[dst]
// receives a tag-message from procs[from] in sv, or -1 when the
// delivery is inadmissible.
func (w *worker) deliverChild(sv, dst, from int32, tag string) int32 {
	k := delivKey{sv, dst, from, tag}
	if id, ok := w.delivSV[k]; ok {
		return id
	}
	v := w.vec(sv)
	id := int32(-1)
	if next, ok := w.e.p.Deliver(w.e.procs[dst], v[dst], w.e.procs[from], tag); ok {
		w.svScratch = append(w.svScratch[:0], v...)
		w.svScratch[dst] = next
		id, w.buf = w.e.states.intern(w.svScratch, w.buf)
	}
	w.delivSV[k] = id
	return id
}

// reportProgress delivers the counters to the progress callback.
// Frontier counts the members emitted but not yet expanded, which
// includes those at the event bound.
func (e *engine) reportProgress() {
	e.progMu.Lock()
	defer e.progMu.Unlock()
	n := e.emitted.Load()
	e.cfg.progress(Progress{Explored: int(n), Frontier: int(max(0, n-e.expanded.Load()))})
}
