package trace

import (
	"errors"
	"fmt"
	"iter"
	"strings"
	"sync/atomic"
)

// Validation errors returned by NewComputation and related constructors.
var (
	// ErrDuplicateEvent reports two events with the same identifier.
	ErrDuplicateEvent = errors.New("trace: duplicate event id")
	// ErrBadEventID reports an event whose identifier does not match its
	// position in its process's projection.
	ErrBadEventID = errors.New("trace: event id inconsistent with per-process position")
	// ErrReceiveBeforeSend reports a receive with no earlier matching send.
	ErrReceiveBeforeSend = errors.New("trace: receive not preceded by corresponding send")
	// ErrDuplicateMessage reports a message sent or received twice.
	ErrDuplicateMessage = errors.New("trace: message sent or received more than once")
	// ErrBadMessage reports a malformed send/receive event.
	ErrBadMessage = errors.New("trace: malformed message event")
)

// Computation is a system computation: a validated finite sequence of
// events. Computations are immutable; all mutating operations return a new
// Computation. The zero value is not valid — use Empty or NewComputation.
//
// The representation is a persistent prefix tree: a computation is its
// one-event-shorter prefix plus one event, so an extension shares its
// parent's entire history and is constructed in O(1) space. The flat
// event slice and the canonical string key are materialized lazily and
// cached; the 128-bit canonical hash is extended incrementally at
// construction, so identity checks and dedup never touch strings.
//
// A universe (internal/universe) does not store its members as
// Computations: it keeps the same prefix tree as pointer-free columns —
// each member's parent number, interned last event, hash and length —
// and builds a member's Computation only when a caller asks for it,
// through Extend on its parent's.
type Computation struct {
	// parent is the one-event-shorter prefix; nil exactly for the empty
	// computation.
	parent *Computation
	// last is the final event; meaningful only when parent != nil.
	last Event
	// n is the event count.
	n int
	// hash is the canonical 128-bit hash of the sequence, extended
	// incrementally from the parent's hash.
	hash Hash128
	// flat caches the materialized event slice. The cached slice is
	// internal: Events returns copies, At returns values.
	flat atomic.Pointer[[]Event]
	// keyc caches the canonical string key.
	keyc atomic.Pointer[string]
}

// emptyComputation is the shared null computation: computations are
// immutable and every construction chain is rooted here.
var emptyComputation = &Computation{hash: emptyHash}

// Empty returns the empty computation (the paper's "null").
func Empty() *Computation { return emptyComputation }

// NewComputation validates the event sequence as a system computation:
// event identifiers must be the canonical per-process identifiers, every
// receive must be preceded by its corresponding send (same MsgID, matching
// peers), and no message may be sent or received twice.
//
// Validation is a single map-backed pass (O(n) total, unlike folding
// Append, whose per-event chain walks would make bulk construction
// quadratic); the chain is built with unchecked extensions as each
// event clears.
func NewComputation(events []Event) (*Computation, error) {
	seen := make(map[EventID]struct{}, len(events))
	perProc := make(map[ProcID]int)
	sent := make(map[MsgID]Event)
	received := make(map[MsgID]struct{})
	c := Empty()
	for i, e := range events {
		if _, dup := seen[e.ID]; dup {
			return nil, fmt.Errorf("%w: %s at index %d", ErrDuplicateEvent, e.ID, i)
		}
		seen[e.ID] = struct{}{}
		want := NewEventID(e.Proc, perProc[e.Proc])
		if e.ID != want {
			return nil, fmt.Errorf("%w: got %s, want %s", ErrBadEventID, e.ID, want)
		}
		perProc[e.Proc]++
		switch e.Kind {
		case KindSend:
			if e.Msg == "" || e.Peer == "" {
				return nil, fmt.Errorf("%w: send %s", ErrBadMessage, e.ID)
			}
			if _, dup := sent[e.Msg]; dup {
				return nil, fmt.Errorf("%w: message %s sent twice", ErrDuplicateMessage, e.Msg)
			}
			sent[e.Msg] = e
		case KindReceive:
			if e.Msg == "" || e.Peer == "" {
				return nil, fmt.Errorf("%w: receive %s", ErrBadMessage, e.ID)
			}
			s, ok := sent[e.Msg]
			if !ok {
				return nil, fmt.Errorf("%w: message %s received by %s", ErrReceiveBeforeSend, e.Msg, e.Proc)
			}
			if s.Peer != e.Proc || s.Proc != e.Peer {
				return nil, fmt.Errorf("%w: message %s sent %s→%s but received by %s from %s",
					ErrBadMessage, e.Msg, s.Proc, s.Peer, e.Proc, e.Peer)
			}
			if _, dup := received[e.Msg]; dup {
				return nil, fmt.Errorf("%w: message %s received twice", ErrDuplicateMessage, e.Msg)
			}
			received[e.Msg] = struct{}{}
		case KindInternal:
			if e.Msg != "" || e.Peer != "" {
				return nil, fmt.Errorf("%w: internal %s carries message fields", ErrBadMessage, e.ID)
			}
		default:
			return nil, fmt.Errorf("%w: event %s has kind %v", ErrBadMessage, e.ID, e.Kind)
		}
		c = Extend(c, e)
	}
	return c, nil
}

// MustNew is NewComputation for statically known-valid inputs (tests,
// examples); it panics on validation failure.
func MustNew(events []Event) *Computation {
	c, err := NewComputation(events)
	if err != nil {
		panic(err)
	}
	return c
}

func sequenceKey(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(string(e.Proc))
		b.WriteByte('/')
		b.WriteString(e.LocalKey())
		b.WriteByte(';')
	}
	return b.String()
}

// Len reports the number of events.
func (c *Computation) Len() int { return c.n }

// Parent returns the one-event-shorter prefix of c, or nil when c is
// the empty computation. Together with Last it exposes the persistent
// prefix-tree structure: the enumeration engine's search tree and the
// universe's prefix-extension transition graph are both exactly this
// parent relation, and a universe member's Parent is the member its
// prefix index names.
func (c *Computation) Parent() *Computation { return c.parent }

// Last returns the final event of c; ok is false when c is empty.
func (c *Computation) Last() (Event, bool) {
	if c.parent == nil {
		return Event{}, false
	}
	return c.last, true
}

// Hash returns the canonical 128-bit hash of the event sequence: equal
// sequences have equal hashes, and distinct sequences collide with
// probability ~2^-128. It is precomputed at construction (extended
// incrementally from the parent), so calling it is free.
func (c *Computation) Hash() Hash128 { return c.hash }

// evs returns the materialized event slice, building and caching it on
// first use. The walk stops early at the nearest ancestor that already
// materialized its prefix. The result is internal — callers inside the
// package must not let it escape mutably.
func (c *Computation) evs() []Event {
	if c.n == 0 {
		return nil
	}
	if p := c.flat.Load(); p != nil {
		return *p
	}
	out := make([]Event, c.n)
	for node := c; node.parent != nil; node = node.parent {
		if f := node.flat.Load(); f != nil {
			copy(out, *f)
			break
		}
		out[node.n-1] = node.last
	}
	c.flat.Store(&out)
	return out
}

// At returns the i-th event.
func (c *Computation) At(i int) Event { return c.evs()[i] }

// Backward yields the events of c from the last to the first. It walks
// the prefix tree, so unlike At and Events it materializes no event
// slice: an order-insensitive scan of one computation, such as a
// history-count predicate's Holds, allocates nothing. Scans of every
// member of a universe fold its prefix index instead, which visits each
// event once per universe rather than once per member that contains it
// (see universe.HistorySums).
func (c *Computation) Backward() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for a := c; a.parent != nil; a = a.parent {
			if !yield(a.last) {
				return
			}
		}
	}
}

// Events returns a copy of the event sequence.
func (c *Computation) Events() []Event {
	evs := c.evs()
	cp := make([]Event, len(evs))
	copy(cp, evs)
	return cp
}

// Key returns a canonical encoding of the whole sequence: two computations
// are the same sequence of events exactly when their keys are equal. The
// key is materialized lazily and cached; identity-style checks should
// prefer Hash, which is precomputed.
func (c *Computation) Key() string {
	if c.n == 0 {
		return ""
	}
	if p := c.keyc.Load(); p != nil {
		return *p
	}
	s := sequenceKey(c.evs())
	c.keyc.Store(&s)
	return s
}

// SameAs reports sequence equality (identical events in identical order),
// decided by length and canonical hash.
func (c *Computation) SameAs(d *Computation) bool {
	return c.n == d.n && c.hash == d.hash
}

// Procs returns the set of processes that have at least one event in c.
func (c *Computation) Procs() ProcSet {
	var ids []ProcID
	for node := c; node.parent != nil; node = node.parent {
		seen := false
		for _, id := range ids {
			if id == node.last.Proc {
				seen = true
				break
			}
		}
		if !seen {
			ids = append(ids, node.last.Proc)
		}
	}
	return NewProcSet(ids...)
}

// Projection returns the subsequence of events on processes in P — the
// paper's z_P. The result preserves order.
func (c *Computation) Projection(p ProcSet) []Event {
	var out []Event
	for _, e := range c.evs() {
		if p.Contains(e.Proc) {
			out = append(out, e)
		}
	}
	return out
}

// ProjectionKey returns a canonical encoding of the per-process
// projections of c on P. x [P] y holds exactly when
// x.ProjectionKey(P) == y.ProjectionKey(P): the relation is defined
// process-by-process (x [P] y ≡ ∀p∈P: x [p] y), so the key concatenates
// each process's projection separately rather than the interleaved
// subsequence — two interleavings of independent events on distinct
// members of P are [P]-isomorphic.
//
// Keys are built on every call, never cached: the partition tables of
// package universe never spell a projection out, and only need keys to
// look up computations outside the universe.
func (c *Computation) ProjectionKey(p ProcSet) string {
	evs := c.evs()
	var b strings.Builder
	b.Grow(2*len(evs) + 6*p.Len())
	for _, id := range p.ids {
		b.WriteString(string(id))
		b.WriteByte('/')
		for _, e := range evs {
			if e.Proc == id {
				b.WriteString(e.LocalKey())
				b.WriteByte(';')
			}
		}
		b.WriteByte('|')
	}
	return b.String()
}

// IsomorphicTo reports x [P] y: the projections of c and d on every process
// in P coincide. This is the paper's central relation (§3). It agrees
// with comparing ProjectionKeys, walking both event sequences once per
// process of P instead of spelling the keys out.
func (c *Computation) IsomorphicTo(d *Computation, p ProcSet) bool {
	ce, de := c.evs(), d.evs()
	for _, id := range p.ids {
		i, j := 0, 0
		for {
			for i < len(ce) && ce[i].Proc != id {
				i++
			}
			for j < len(de) && de[j].Proc != id {
				j++
			}
			if i == len(ce) || j == len(de) {
				if i != len(ce) || j != len(de) {
					return false
				}
				break
			}
			a, b := ce[i], de[j]
			if a.ID != b.ID || a.Kind != b.Kind || a.Msg != b.Msg || a.Peer != b.Peer || a.Tag != b.Tag {
				return false
			}
			i, j = i+1, j+1
		}
	}
	return true
}

// PermutationOf reports whether d consists of exactly the events of c,
// possibly reordered; equivalently x [D] y for D ⊇ procs of both. The paper
// notes x [D] y ∧ x ≠ y implies y is a permutation of x.
func (c *Computation) PermutationOf(d *Computation) bool {
	return c.IsomorphicTo(d, c.Procs().Union(d.Procs()))
}

// IsPrefixOf reports c ≤ d: the events of c are the first Len(c) events of
// d in the same order. With the prefix-tree representation this is one
// ancestor walk and a hash comparison.
func (c *Computation) IsPrefixOf(d *Computation) bool {
	if c.n > d.n {
		return false
	}
	a := d
	for a.n > c.n {
		a = a.parent
	}
	return a.hash == c.hash
}

// Prefix returns the prefix of c with n events — the n-th ancestor in
// the prefix tree, shared rather than copied. It panics if n is out of
// range, matching slice semantics.
func (c *Computation) Prefix(n int) *Computation {
	if n < 0 || n > c.n {
		panic(fmt.Sprintf("trace: Prefix(%d) out of range [0,%d]", n, c.n))
	}
	a := c
	for a.n > n {
		a = a.parent
	}
	return a
}

// Prefixes returns all prefixes of c, from Empty up to c itself. System
// computations are prefix closed, so all of these are valid computations.
func (c *Computation) Prefixes() []*Computation {
	out := make([]*Computation, c.n+1)
	for a := c; ; a = a.parent {
		out[a.n] = a
		if a.parent == nil {
			break
		}
	}
	return out
}

// Suffix returns (x, z), the suffix of c obtained by removing the prefix x.
// It returns an error if x is not a prefix of c.
func (c *Computation) Suffix(x *Computation) ([]Event, error) {
	if !x.IsPrefixOf(c) {
		return nil, fmt.Errorf("trace: Suffix: %w", ErrNotPrefix)
	}
	evs := c.evs()
	cp := make([]Event, c.n-x.n)
	copy(cp, evs[x.n:])
	return cp, nil
}

// ErrNotPrefix reports a Suffix or Concat argument that is not a prefix.
var ErrNotPrefix = errors.New("trace: not a prefix")

// Extend returns parent extended by e, without validation.
//
// The caller must guarantee that e is a valid extension of parent:
// canonical identifiers at the correct per-process positions, receives
// only of in-flight messages with matching peers. Universes rebuild
// their members from events that were valid when enumerated or loaded;
// anything else should go through Append, which validates.
func Extend(parent *Computation, e Event) *Computation {
	return &Computation{parent: parent, last: e, n: parent.n + 1, hash: parent.hash.ExtendEvent(e)}
}

// Append returns (c;e) validated as a system computation. Validation is
// incremental: only the new event is checked, against the (already
// valid) prefix.
func (c *Computation) Append(e Event) (*Computation, error) {
	if err := c.validateExtend(e); err != nil {
		return nil, err
	}
	return Extend(c, e), nil
}

// validateExtend checks that e is a valid one-event extension of the
// valid computation c, reproducing exactly the checks (and error kinds)
// of the whole-sequence validator it replaced. Each check is a walk of
// the parent chain, allocation-free.
func (c *Computation) validateExtend(e Event) error {
	for a := c; a.parent != nil; a = a.parent {
		if a.last.ID == e.ID {
			return fmt.Errorf("%w: %s at index %d", ErrDuplicateEvent, e.ID, c.n)
		}
	}
	onProc := 0
	for a := c; a.parent != nil; a = a.parent {
		if a.last.Proc == e.Proc {
			onProc++
		}
	}
	if want := NewEventID(e.Proc, onProc); e.ID != want {
		return fmt.Errorf("%w: got %s, want %s", ErrBadEventID, e.ID, want)
	}
	switch e.Kind {
	case KindSend:
		if e.Msg == "" || e.Peer == "" {
			return fmt.Errorf("%w: send %s", ErrBadMessage, e.ID)
		}
		for a := c; a.parent != nil; a = a.parent {
			if a.last.Kind == KindSend && a.last.Msg == e.Msg {
				return fmt.Errorf("%w: message %s sent twice", ErrDuplicateMessage, e.Msg)
			}
		}
	case KindReceive:
		if e.Msg == "" || e.Peer == "" {
			return fmt.Errorf("%w: receive %s", ErrBadMessage, e.ID)
		}
		// Walking backwards, the first send/receive of this message
		// decides: a receive means the message was already consumed, a
		// send is the matching sender.
		var send Event
		found := false
		for a := c; a.parent != nil; a = a.parent {
			if a.last.Msg != e.Msg || a.last.Kind == KindInternal {
				continue
			}
			if a.last.Kind == KindReceive {
				return fmt.Errorf("%w: message %s received twice", ErrDuplicateMessage, e.Msg)
			}
			send, found = a.last, true
			break
		}
		if !found {
			return fmt.Errorf("%w: message %s received by %s", ErrReceiveBeforeSend, e.Msg, e.Proc)
		}
		if send.Peer != e.Proc || send.Proc != e.Peer {
			return fmt.Errorf("%w: message %s sent %s→%s but received by %s from %s",
				ErrBadMessage, e.Msg, send.Proc, send.Peer, e.Proc, e.Peer)
		}
	case KindInternal:
		if e.Msg != "" || e.Peer != "" {
			return fmt.Errorf("%w: internal %s carries message fields", ErrBadMessage, e.ID)
		}
	default:
		return fmt.Errorf("%w: event %s has kind %v", ErrBadMessage, e.ID, e.Kind)
	}
	return nil
}

// Concat returns (c;suffix) validated as a system computation.
func (c *Computation) Concat(suffix []Event) (*Computation, error) {
	out := c
	for _, e := range suffix {
		d, err := out.Append(e)
		if err != nil {
			return nil, err
		}
		out = d
	}
	return out, nil
}

// DeleteLastOn returns (c − e) where e must be the last event on its own
// process in c (the situation of the Principle of Computation Extension,
// part 2). Deleting any other event would invalidate per-process event
// identifiers, and the principle never requires it.
func (c *Computation) DeleteLastOn(id EventID) (*Computation, error) {
	evs := c.evs()
	idx := -1
	for i, e := range evs {
		if e.ID == id {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("trace: DeleteLastOn: event %s not found", id)
	}
	victim := evs[idx]
	for _, e := range evs[idx+1:] {
		if e.Proc == victim.Proc {
			return nil, fmt.Errorf("trace: DeleteLastOn: %s is not the last event on %s", id, victim.Proc)
		}
	}
	events := make([]Event, 0, c.n-1)
	events = append(events, evs[:idx]...)
	events = append(events, evs[idx+1:]...)
	return NewComputation(events)
}

// InFlight returns the messages sent but not yet received in c, in send
// order. These are exactly the messages a process may still receive in an
// extension of c.
func (c *Computation) InFlight() []Event {
	evs := c.evs()
	received := make(map[MsgID]struct{})
	for _, e := range evs {
		if e.Kind == KindReceive {
			received[e.Msg] = struct{}{}
		}
	}
	var out []Event
	for _, e := range evs {
		if e.Kind == KindSend {
			if _, ok := received[e.Msg]; !ok {
				out = append(out, e)
			}
		}
	}
	return out
}

// CountKind returns the number of events of the given kind on P.
func (c *Computation) CountKind(p ProcSet, k Kind) int {
	n := 0
	for a := c; a.parent != nil; a = a.parent {
		if a.last.Kind == k && p.Contains(a.last.Proc) {
			n++
		}
	}
	return n
}

// String renders the computation one event per line.
func (c *Computation) String() string {
	if c.n == 0 {
		return "⟨null⟩"
	}
	evs := c.evs()
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, "\n")
}
