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
//   - A frontier node is a computation in the persistent prefix-tree
//     representation (child = parent + one event; see trace.Computation)
//     plus the int32 identifier of its interned local-state vector.
//     Expanding a node never replays or copies its event history: one
//     allocation-free walk of the parent chain recovers the per-process
//     event counts, send counters, and in-flight messages.
//   - Children are constructed unchecked through per-worker arenas —
//     the engine's events are canonical by construction — with event
//     and message identifiers taken from tables precomputed up to the
//     event bound, so child construction allocates no strings.
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
// pass over the emission records (see canonicalize), so enumeration
// with any parallelism yields byte-identical results — same member
// order, hence identical Partition tables and Transitions graph. The
// search tree is the universe's prefix tree, so the same pass hands the
// prefix index over: every record carries its parent's emission number
// and its last event, interned by the emitting worker. The differential
// tests in differential_test.go hold the engine to that contract,
// against both its own sequential runs and a replay-based reference
// enumerator.

// ErrAmbiguousStep reports a protocol that, in one local state, enables
// two actions with the same event but different successor states: its
// event sequence does not determine its state, so its computations are
// not a function of their events.
var ErrAmbiguousStep = errors.New("universe: equal events lead to different states")

// enode is one work item of the frontier: a computation plus its
// interned local-state vector and its parent's emission number (see
// engine.emitted). Under WithSymmetry it also carries the computation's
// support mask — bit i set when procs[i] appears as the Proc or Peer of
// some event — which identifies the node's stabilizer (the pointwise
// stabilizer of the support) and hence its orbit size. par sits in the
// padding after sv, so a node stays 24 bytes.
type enode struct {
	comp *trace.Computation
	sv   int32
	// par is the emission number of the parent, -1 for the null
	// computation. An extension's seed nodes are never emitted; they
	// carry their own base member index instead, which is the number
	// their children's par must name.
	par  int32
	mask uint64
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

	// outs collects each worker's emission records; canonicalize
	// merges them once the pool drains.
	outs []emission
}

// emission is one worker's share of the emitted members, in its
// emission order. Keeping the whole node (not just the computation)
// preserves each member's interned state vector, which Extend needs to
// re-seed the next frontier without replaying the protocol, and its
// parent's emission number, which becomes the prefix index's parent.
type emission struct {
	nodes []enode
	// event[k] is nodes[k]'s last event, interned in events while the
	// record is still hot in the worker's cache; -1 for the null
	// computation.
	event  []int32
	events eventTable
	// num[k] is nodes[k]'s emission number. Nil with a single worker,
	// whose records are numbered consecutively.
	num []int32
	// lens[l] counts the records with l events.
	lens []int32
}

// worker holds one worker's arena, scratch buffers, and lock-free
// caches over the engine's shared state table.
type worker struct {
	e     *engine
	out   *emission
	arena trace.Arena

	batch    []enode
	children []enode

	// Chain-walk scratch, reused across expansions.
	evCount  []int32
	nextMsg  []int32
	inflight []trace.Event
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
		outs:      make([]emission, cfg.parallelism),
	}
	e.cond = sync.NewCond(&e.mu)
	if seed != nil {
		// Queue the old frontier. The emit counter starts at the base
		// size so cap and progress semantics match a from-scratch run of
		// the larger bound.
		e.noEmitLen = seed.base.maxEvents
		e.emitted.Store(int64(seed.base.Len()))
		for i := 0; i < seed.base.Len(); i++ {
			if c := seed.base.At(i); c.Len() == seed.base.maxEvents {
				nd := enode{comp: c, sv: seed.svs[i], par: int32(i)}
				if grp != nil {
					nd.mask = e.supportMask(c)
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
		e.queue = []enode{{comp: trace.Empty(), sv: sv0, par: -1}}
	}
	e.frontier.Store(int64(len(e.queue)))

	var wg sync.WaitGroup
	for w := 0; w < cfg.parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &worker{
				e:       e,
				out:     &e.outs[w],
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
		for _, nd := range w.batch {
			if err = w.expand(nd, &w.children); err != nil {
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
func (w *worker) expand(nd enode, children *[]enode) error {
	e := w.e
	if err := e.cfg.ctx.Err(); err != nil {
		return err
	}
	c := nd.comp
	// Nodes at or below the seed horizon are already members of the
	// universe being extended: expand them, but emit only their
	// descendants. Such a seed carries its own number in par.
	self := nd.par
	if c.Len() > e.noEmitLen {
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

	if c.Len() >= e.cfg.maxEvents {
		return nil
	}
	w.loadChain(c)
	// Deliveries of in-flight messages.
	for _, send := range w.inflight {
		dst := e.procIdx[send.Peer]
		csv := w.deliverChild(nd.sv, dst, e.procIdx[send.Proc], send.Tag)
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
		*children = append(*children, enode{comp: w.arena.Extend(c, ev), sv: csv, par: self, mask: nd.mask | 1<<uint(dst)})
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
				canon := w.symCanonical(c, nd.mask, ev, int32(pi), qi, w.evCount[pi], w.nextMsg[pi])
				if e.cfg.trace != nil {
					w.symNanos += int64(time.Since(t0))
				}
				if !canon {
					w.symRejects++
					continue
				}
			}
			*children = append(*children, enode{comp: w.arena.Extend(c, ev), sv: w.stepChild(nd.sv, int32(pi), ai, a), par: self, mask: mask})
		}
	}
	return nil
}

// emit appends nd, emitted as number num, to the worker's records and
// interns its last event.
func (w *worker) emit(nd enode, num int32) {
	out := w.out
	out.nodes = append(out.nodes, nd)
	if len(w.e.outs) > 1 {
		out.num = append(out.num, num)
	}
	ev := int32(-1)
	if last, ok := nd.comp.Last(); ok {
		ev = out.events.intern(&last)
	}
	out.event = append(out.event, ev)
	l := nd.comp.Len()
	for len(out.lens) <= l {
		out.lens = append(out.lens, 0)
	}
	out.lens[l]++
}

// symCanonical reports whether extending parent (whose support is mask)
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
func (w *worker) symCanonical(parent *trace.Computation, mask uint64, ev trace.Event, pi, qi, k, j int32) bool {
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
			h = parent.Hash().ExtendEvent(ev)
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
		if parent.Hash().ExtendEvent(sev).Less(h) {
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

// supportMask recomputes a computation's support mask by walking its
// chain; the engine uses it only to seed extension frontiers (fresh
// nodes carry masks incrementally).
func (e *engine) supportMask(c *trace.Computation) uint64 {
	var mask uint64
	for node := c; ; {
		ev, ok := node.Last()
		if !ok {
			return mask
		}
		mask |= 1 << uint(e.procIdx[ev.Proc])
		if ev.Peer != "" {
			mask |= 1 << uint(e.procIdx[ev.Peer])
		}
		node = node.Parent()
	}
}

// loadChain recovers the expansion state of c into the worker's scratch
// buffers with one allocation-free walk of the parent chain: per-process
// event counts, per-process send counters, and the in-flight messages
// (sends not received; the walk is backwards, so receives are seen
// before their sends).
func (w *worker) loadChain(c *trace.Computation) {
	for i := range w.evCount {
		w.evCount[i], w.nextMsg[i] = 0, 0
	}
	w.inflight = w.inflight[:0]
	w.received = w.received[:0]
	for node := c; ; {
		ev, ok := node.Last()
		if !ok {
			break
		}
		pi := w.e.procIdx[ev.Proc]
		w.evCount[pi]++
		switch ev.Kind {
		case trace.KindSend:
			w.nextMsg[pi]++
			if !w.sawReceive(ev.Msg) {
				w.inflight = append(w.inflight, ev)
			}
		case trace.KindReceive:
			w.received = append(w.received, ev.Msg)
		}
		node = node.Parent()
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
