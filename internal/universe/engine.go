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

// The enumeration engine is an iterative frontier search run by a pool
// of workers, rebuilt around structural sharing and incremental state:
//
//   - A frontier node is a fixed-size record with no pointers: the
//     computation's 128-bit hash and length, its parent's number, its
//     interned last event, and the int32 identifier of its interned
//     local-state vector. Expanding a node never replays or copies its
//     event history: one allocation-free walk of the parent numbers
//     recovers the per-process event counts, send counters, and
//     in-flight messages.
//   - Every emitted node is stored by emission number in a log of fixed
//     chunks, which never move once allocated, so a worker walking
//     another worker's records never reads memory that is being
//     reallocated. Numbers below the seed's size name the base
//     universe's members and are read from its columns.
//   - A child's hash is its parent's extended by one event, built on
//     the stack from identifiers precomputed up to the event bound; the
//     event is interned in a table the workers share, behind a
//     per-worker cache. No trace.Computation is built: the universe's
//     member views are made on demand (see Universe.At).
//   - No seen-set: every node above the seed horizon is emitted, and
//     no two are the same computation. The search tree is the
//     universe's prefix tree — a node is its parent plus one event — so
//     two nodes can be the same sequence only if one parent yields the
//     same event twice. Its deliveries cannot, since each names its own
//     message, and stepActions collapses spontaneous actions whose
//     events coincide where they arise. By induction on length, then,
//     distinct nodes are distinct sequences. Under WithSymmetry the
//     emitted nodes are moreover in distinct orbits: if σ maps node x
//     to node y, it fixes their longest common prefix c, so σ is in
//     c's stabilizer and maps x's child of c to y's — two siblings in
//     one stabilizer orbit, of which symCanonical keeps only one. An
//     extension (Extend) expands its seeds, the base's frontier,
//     without re-emitting them, and everything it emits is longer than
//     every base member. What remains is the ~2^-128 assumption that
//     distinct members of one length hash apart, and canonicalOrder
//     checks it (ErrHashCollision).
//   - Workers pop nodes and push children in batches, so queue lock
//     traffic is amortized over dozens of expansions.
//   - Protocol transitions (Steps/AfterStep/Deliver) are cached per
//     worker keyed by interned state-vector identifiers: a Protocol is
//     one finite state machine per process, so its transition functions
//     are pure in (process, state) and each distinct transition is
//     computed once per worker.
//
// The emitted set is independent of worker count and of scheduling; the
// final universe is put in canonical (length, hash) order by a bucket
// pass over the emission log (see canonicalize), so enumeration with
// any parallelism yields byte-identical results — same member order,
// hence identical Partition tables and Transitions graph. The same pass
// lays the records out as the universe's columns: hash, length, state
// vector, and the prefix index's parent and event. The differential
// tests in differential_test.go hold the engine to that contract,
// against both its own sequential runs and a replay-based reference
// enumerator.

// ErrAmbiguousStep reports a protocol that, in one local state, enables
// two actions with the same event but different successor states: its
// event sequence does not determine its state, so its computations are
// not a function of their events.
var ErrAmbiguousStep = errors.New("universe: equal events lead to different states")

// record is one member as the engine emits it: its hash and length,
// the number of its parent (-1 for the null computation), its last
// event's identifier in the engine's shared event table (-1 for null),
// and its interned local-state vector. A number is an emission number
// (see engine.emitted); below the seed's size it is a base member index.
type record struct {
	hash trace.Hash128
	par  int32
	ev   int32
	sv   int32
	n    int32
}

// enode is one work item of the frontier: the record the node will be
// emitted as and, under WithSymmetry, its support mask — bit i set when
// procs[i] appears as the Proc or Peer of some event — which identifies
// the node's stabilizer (the pointwise stabilizer of the support) and
// hence its orbit size. An extension's seed nodes are never emitted;
// their par is their own base member index, the number their children
// must name.
type enode struct {
	record
	mask uint64
}

// logChunkBits sizes the emission log's chunks: 1024 records each.
const logChunkBits = 10

const logChunkMask = 1<<logChunkBits - 1

// chunkLog is an append-only array of T split into fixed chunks that
// never move. Workers write their own slots concurrently; a slot is
// read only after its write happened before (through the work queue),
// and the chunk directory is replaced, never mutated below its length,
// so readers holding an older directory stay valid.
type chunkLog[T any] struct {
	mu  sync.Mutex
	dir atomic.Pointer[[]*[1 << logChunkBits]T]
}

// chunks returns the current chunk directory.
func (l *chunkLog[T]) chunks() []*[1 << logChunkBits]T {
	if d := l.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// slot returns slot k for writing, allocating its chunk if need be.
func (l *chunkLog[T]) slot(k int) *T {
	c := k >> logChunkBits
	if d := l.chunks(); c < len(d) {
		return &d[c][k&logChunkMask]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.chunks()
	for len(d) <= c {
		d = append(d, new([1 << logChunkBits]T))
	}
	l.dir.Store(&d)
	return &d[c][k&logChunkMask]
}

// records is a snapshot of the emission log's chunk directory.
type records []*[1 << logChunkBits]record

func (r records) at(k int32) *record { return &r[k>>logChunkBits][k&logChunkMask] }

// engineEvent is an entry of the engine's shared event table: the event
// and the indexes of its process and peer (-1 when it has none), which
// the chain walk needs.
type engineEvent struct {
	trace.Event
	proc, peer int32
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
		t = append(t, engineEvent{Event: *ev, proc: proc, peer: peer})
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

	// noEmitLen marks the seed horizon of an extension run: nodes of
	// that length or shorter are expanded but not emitted — they are
	// already members of the universe being extended. -1 for
	// from-scratch runs, so the null computation is emitted.
	noEmitLen int

	// base is the seed universe's size, 0 for from-scratch runs; numbers
	// below it are base member indexes, read through baseX, whose
	// events baseEv maps into the shared event table.
	base   int
	baseX  *prefixIndex
	baseEv []int32

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []enode
	active  int
	stopped bool
	stopErr error

	// emitted counts emitted members. Each emission draws its member's
	// emission number from it: a from-scratch run numbers members 0, 1,
	// …, and an extension continues after the base's members, so a
	// number below the base size is a base member index.
	emitted  atomic.Int64
	frontier atomic.Int64

	// Symmetry-filter totals, flushed from worker-local counters when
	// each worker retires; symNanos is measured only under WithTrace.
	symCheckN  atomic.Int64
	symRejectN atomic.Int64
	symNanos   atomic.Int64

	// progMu serializes the user's progress callback.
	progMu sync.Mutex

	// recs holds the emitted records by emission number less base, and
	// masks their support masks under WithSymmetry; events is the shared
	// event table they name. lens[w][l] counts worker w's records with
	// l events. canonicalize turns all of it into the universe.
	recs   chunkLog[record]
	masks  chunkLog[uint64]
	events eventLog
	lens   [][]int32
}

// worker holds one worker's scratch buffers and lock-free caches over
// the engine's shared state.
type worker struct {
	e *engine

	batch    []enode
	children []enode

	// lens[l] counts the records this worker emitted with l events.
	lens []int32

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
	// increments; flushed into the engine once when the worker retires.
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
// The resulting universe is canonical: members are ordered by event
// count, then 128-bit canonical hash, so the result is identical for
// every parallelism level. Enumeration fails with ErrTooLarge when the
// universe exceeds the WithCap bound, and with ctx.Err() when the
// WithContext context is cancelled.
func EnumerateWith(p Protocol, opts ...Option) (*Universe, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return enumerate(p, cfg, nil)
}

// seedState re-seeds an enumeration from an existing universe: svs[i]
// is the interned identifier (in states) of base member i's local-state
// vector. Extend constructs it; enumerate consumes it by queueing the
// base's frontier — its members of exactly maxEvents length — instead
// of the null computation. Completeness below the old bound is what
// makes this sound: a bound-n universe contains every computation of
// length < n together with all of their children, so only the length-n
// members have unexplored extensions.
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

	states := newStateTable()
	if seed != nil {
		states = seed.states
	}

	e := &engine{
		p:         p,
		cfg:       cfg,
		procs:     procs,
		procIdx:   procIdx,
		eventIDs:  eventIDs,
		msgIDs:    msgIDs,
		states:    states,
		grp:       grp,
		noEmitLen: -1,
		lens:      make([][]int32, cfg.parallelism),
	}
	e.cond = sync.NewCond(&e.mu)
	if seed != nil {
		// Queue the old frontier. The emit counter starts at the base
		// size so cap and progress semantics match a from-scratch run of
		// the larger bound; the base's events join the shared table so
		// chain walks read base members like records.
		b := seed.base
		e.noEmitLen = b.maxEvents
		e.base = b.Len()
		e.emitted.Store(int64(e.base))
		e.baseX = b.prefixIndex()
		e.baseEv = make([]int32, len(e.baseX.events))
		for id := range e.baseX.events {
			ev := &e.baseX.events[id]
			e.baseEv[id] = e.events.intern(ev, e.procOf(ev.Proc), e.procOf(ev.Peer))
		}
		for i := range e.base {
			if int(b.length[i]) == b.maxEvents {
				nd := enode{record: record{hash: b.hash[i], par: int32(i), ev: -1, sv: seed.svs[i], n: b.length[i]}}
				if grp != nil {
					nd.mask = e.supportMask(int32(i))
				}
				e.queue = append(e.queue, nd)
			}
		}
	} else {
		vec0 := make([]string, n)
		for i, id := range procs {
			vec0[i] = p.Init(id)
		}
		sv0, _ := states.intern(vec0, nil)
		e.queue = []enode{{record: record{hash: trace.Empty().Hash(), par: -1, ev: -1, sv: sv0}}}
	}
	e.frontier.Store(int64(len(e.queue)))

	var wg sync.WaitGroup
	for w := 0; w < cfg.parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &worker{
				e:       e,
				evCount: make([]int32, n),
				nextMsg: make([]int32, n),
				vecs:    make(map[int32][]string),
				steps:   make(map[stepsKey][]Action),
				stepSV:  make(map[actKey]int32),
				delivSV: make(map[delivKey]int32),
			}
			if grp != nil {
				wk.stabCache = make(map[uint64][]int32)
			}
			e.run(wk)
			e.lens[w] = wk.lens
			if wk.symChecks > 0 {
				e.symCheckN.Add(wk.symChecks)
				e.symRejectN.Add(wk.symRejects)
				e.symNanos.Add(wk.symNanos)
			}
		}(w)
	}
	expandSp := cfg.trace.Start("enumerate.expand")
	wg.Wait()
	phaseExpand.ObserveDuration(expandSp.End())
	if n := e.symCheckN.Load(); n > 0 {
		symChecksTotal.Add(n)
		symRejectsTotal.Add(e.symRejectN.Load())
		// Filter time is a sub-span of expand (workers time it inline),
		// recorded separately so quotient builds can see its share.
		cfg.trace.AddN("symmetry.filter", n, time.Duration(e.symNanos.Load()))
	}
	if e.stopErr != nil {
		return nil, e.stopErr
	}

	canonSp := cfg.trace.Start("enumerate.canonicalize")
	u, err := e.canonicalize(all, seed)
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

// batchMax bounds how many nodes a worker claims per queue lock
// acquisition; children accumulate across the whole batch and are
// pushed back under one more acquisition.
const batchMax = 64

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

// run pops node batches until the frontier drains, an error stops the
// engine, or the context is cancelled.
func (e *engine) run(w *worker) {
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && e.active > 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.stopped || len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		k := len(e.queue)
		if k > batchMax {
			k = batchMax
		}
		w.batch = append(w.batch[:0], e.queue[len(e.queue)-k:]...)
		e.queue = e.queue[:len(e.queue)-k]
		e.active += k
		e.mu.Unlock()
		e.frontier.Add(int64(-k))

		w.children = w.children[:0]
		var err error
		for i := range w.batch {
			if err = w.expand(&w.batch[i], &w.children); err != nil {
				break
			}
		}

		e.mu.Lock()
		e.active -= k
		if err != nil && !e.stopped {
			e.stopped = true
			e.stopErr = err
		}
		wasEmpty := len(e.queue) == 0
		if !e.stopped && len(w.children) > 0 {
			e.queue = append(e.queue, w.children...)
			e.frontier.Add(int64(len(w.children)))
		}
		// Wake peers only on a state change they wait for: work arriving
		// on an empty queue, the engine stopping, or the pool draining.
		if e.stopped || (wasEmpty && len(e.queue) > 0) || (e.active == 0 && len(e.queue) == 0) {
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	}
}

// expand emits nd's computation and appends its children to *children.
func (w *worker) expand(nd *enode, children *[]enode) error {
	e := w.e
	if err := e.cfg.ctx.Err(); err != nil {
		return err
	}
	// Nodes at or below the seed horizon are already members of the
	// universe being extended: expand them, but emit only their
	// descendants. Such a seed carries its own number in par.
	self := nd.par
	if int(nd.n) > e.noEmitLen {
		count := e.emitted.Add(1)
		self = int32(count - 1)
		w.emit(nd, self)
		if e.cfg.capN > 0 && count > int64(e.cfg.capN) {
			return fmt.Errorf("%w: more than %d computations", ErrTooLarge, e.cfg.capN)
		}
		if e.cfg.progress != nil && count%int64(e.cfg.progressEvery) == 0 {
			e.reportProgress()
		}
	}

	if int(nd.n) >= e.cfg.maxEvents {
		return nil
	}
	w.loadChain(self)
	// Deliveries of in-flight messages.
	for _, id := range w.inflight {
		send := &w.events[id]
		dst := send.peer
		csv := w.deliverChild(nd.sv, dst, send.proc, send.Tag)
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
		// Receive children need no canonicity check: the message's sender
		// and addressee both already appear in the parent's support (the
		// send event carries them as Proc and Peer), so every stabilizer
		// element fixes the receive event — its sibling orbit is itself.
		*children = append(*children, w.child(nd, self, &ev, dst, send.proc, csv, nd.mask|1<<uint(dst)))
	}
	// Spontaneous steps.
	for pi := range e.procs {
		pid := e.procs[pi]
		acts, err := w.stepActions(nd.sv, int32(pi))
		if err != nil {
			return err
		}
		for ai, a := range acts {
			var ev trace.Event
			qi := int32(-1)
			switch a.Kind {
			case trace.KindSend:
				if _, ok := e.procIdx[a.To]; !ok || a.To == pid {
					return fmt.Errorf("universe: protocol %T: invalid send %s→%s", e.p, pid, a.To)
				}
				qi = e.procIdx[a.To]
				ev = trace.Event{
					ID:   e.eventID(int32(pi), w.evCount[pi]),
					Proc: pid,
					Kind: trace.KindSend,
					Msg:  e.msgID(int32(pi), w.nextMsg[pi]),
					Peer: a.To,
					Tag:  a.Tag,
				}
			case trace.KindInternal:
				ev = trace.Event{
					ID:   e.eventID(int32(pi), w.evCount[pi]),
					Proc: pid,
					Kind: trace.KindInternal,
					Tag:  a.Tag,
				}
			default:
				return fmt.Errorf("universe: protocol %T emitted action of kind %v", e.p, a.Kind)
			}
			mask := nd.mask | 1<<uint(pi)
			if qi >= 0 {
				mask |= 1 << uint(qi)
			}
			if e.grp != nil {
				w.symChecks++
				// Per-check wall time is only sampled under WithTrace;
				// untraced runs pay two plain increments here.
				var t0 time.Time
				if e.cfg.trace != nil {
					t0 = time.Now()
				}
				canon := w.symCanonical(nd.hash, nd.mask, ev, int32(pi), qi, w.evCount[pi], w.nextMsg[pi])
				if e.cfg.trace != nil {
					w.symNanos += int64(time.Since(t0))
				}
				if !canon {
					w.symRejects++
					continue
				}
			}
			*children = append(*children, w.child(nd, self, &ev, int32(pi), qi, w.stepChild(nd.sv, int32(pi), ai, a), mask))
		}
	}
	return nil
}

// child returns the frontier node for nd's computation, numbered self,
// extended by ev on procs[pi] (with peer procs[qi], or qi = -1).
func (w *worker) child(nd *enode, self int32, ev *trace.Event, pi, qi, sv int32, mask uint64) enode {
	return enode{
		record: record{hash: nd.hash.ExtendEvent(*ev), par: self, ev: w.internEvent(ev, pi, qi), sv: sv, n: nd.n + 1},
		mask:   mask,
	}
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

// emit stores nd as emission number num.
func (w *worker) emit(nd *enode, num int32) {
	e := w.e
	k := int(num) - e.base
	*e.recs.slot(k) = nd.record
	if e.grp != nil {
		*e.masks.slot(k) = nd.mask
	}
	for len(w.lens) <= int(nd.n) {
		w.lens = append(w.lens, 0)
	}
	w.lens[nd.n]++
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
		// distinct siblings both survive, and canonicalOrder fails the
		// run on their equal (length, hash) with ErrHashCollision.
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

// step returns the event identifier and parent of the computation
// numbered num: from the base's columns below the seed size, from the
// emission log above it. recs must be a directory snapshot that holds
// num's record.
func (e *engine) step(recs records, num int32) (ev, par int32) {
	if int(num) < e.base {
		ev, par = e.baseX.event[num], e.baseX.parent[num]
		if ev >= 0 {
			ev = e.baseEv[ev]
		}
		return ev, par
	}
	r := recs.at(num - int32(e.base))
	return r.ev, r.par
}

// supportMask recomputes a base member's support mask by walking its
// chain; the engine uses it only to seed extension frontiers (fresh
// nodes carry masks incrementally).
func (e *engine) supportMask(num int32) uint64 {
	evs := e.events.table()
	var mask uint64
	for ev, par := e.step(nil, num); ev >= 0; ev, par = e.step(nil, par) {
		mask |= 1 << uint(evs[ev].proc)
		if q := evs[ev].peer; q >= 0 {
			mask |= 1 << uint(q)
		}
	}
	return mask
}

// loadChain recovers the expansion state of the computation numbered
// num into the worker's scratch buffers with one allocation-free walk of
// the parent numbers: per-process event counts, per-process send
// counters, and the in-flight messages (sends not received; the walk is
// backwards, so receives are seen before their sends).
func (w *worker) loadChain(num int32) {
	for i := range w.evCount {
		w.evCount[i], w.nextMsg[i] = 0, 0
	}
	w.inflight = w.inflight[:0]
	w.received = w.received[:0]
	e := w.e
	// Every record on the chain was written before num's node was
	// queued, so these snapshots hold all of them.
	w.events = e.events.table()
	recs := records(e.recs.chunks())
	for ev, par := e.step(recs, num); ev >= 0; ev, par = e.step(recs, par) {
		ee := &w.events[ev]
		w.evCount[ee.proc]++
		switch ee.Kind {
		case trace.KindSend:
			w.nextMsg[ee.proc]++
			if !w.sawReceive(ee.Msg) {
				w.inflight = append(w.inflight, ev)
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
// state vector sv, computed once per (sv, pi) per worker. Actions whose
// events coincide are collapsed into the first of them in Steps order
// (see distinctActions), so no parent yields the same child twice.
func (w *worker) stepActions(sv, pi int32) ([]Action, error) {
	k := stepsKey{sv, pi}
	if a, ok := w.steps[k]; ok {
		return a, nil
	}
	p, s := w.e.procs[pi], w.vec(sv)[pi]
	a, err := distinctActions(w.e.p, p, s, w.e.p.Steps(p, s))
	if err != nil {
		return nil, err
	}
	w.steps[k] = a
	return a, nil
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

func (e *engine) reportProgress() {
	f := e.frontier.Load()
	if f < 0 {
		f = 0
	}
	e.progMu.Lock()
	e.cfg.progress(Progress{Explored: int(e.emitted.Load()), Frontier: int(f)})
	e.progMu.Unlock()
}
