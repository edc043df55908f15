// Package stateiso implements the paper's §6 generalization: "we can
// define isomorphism based on states of processes, rather than
// computations … Most of the results in this paper are applicable in the
// first case."
//
// An Abstraction maps each process's projection to a state key; two
// computations are state-isomorphic with respect to P when every member
// of P is in the same abstract state in both. With the FullHistory
// abstraction this coincides with the paper's computation-based
// isomorphism; coarser abstractions (event counters, last event) forget
// history.
//
// The package only builds that relation. Evaluator is
// knowledge.Evaluator over it: each (member, process) abstract state is
// interned to a label once, and the partitions K reduces over and the
// components C reduces over are built from the labels. What survives
// abstraction, as machine-checked over the relation:
//
//   - the knowledge facts of §4.1 (knowledge.CheckKnowledgeFacts) hold
//     for EVERY abstraction, because they only need the relation to be
//     an equivalence;
//   - abstract knowledge implies computation knowledge (coarser classes
//     are supersets), so abstraction is sound for positive knowledge;
//   - Theorem 3 / Lemma 4 (receive cannot lose knowledge) can FAIL under
//     lossy abstractions — a receive may merge the current state with
//     states of less-informed histories. FindLemma4Violation exhibits
//     counterexamples, quantifying the paper's "most".
package stateiso

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Abstraction maps a process's projection to a state key. Keys are
// compared for equality only. Abstractions must be deterministic.
type Abstraction struct {
	name string
	fn   func(p trace.ProcID, projection []trace.Event) string
}

// NewAbstraction builds a named abstraction.
func NewAbstraction(name string, fn func(trace.ProcID, []trace.Event) string) Abstraction {
	return Abstraction{name: name, fn: fn}
}

// Name returns the abstraction's name.
func (a Abstraction) Name() string { return a.name }

// StateOf applies the abstraction to one process's projection.
func (a Abstraction) StateOf(p trace.ProcID, projection []trace.Event) string {
	return a.fn(p, projection)
}

// FullHistory is the identity abstraction: the state is the entire
// projection. State isomorphism under FullHistory is exactly the paper's
// computation isomorphism.
func FullHistory() Abstraction {
	return NewAbstraction("full-history", func(_ trace.ProcID, proj []trace.Event) string {
		var b strings.Builder
		for _, e := range proj {
			b.WriteString(e.LocalKey())
			b.WriteByte(';')
		}
		return b.String()
	})
}

// Counters abstracts a projection to its event-kind counts: the process
// remembers how many sends, receives, and internal events it performed,
// but not their order, targets, or payloads.
func Counters() Abstraction {
	return NewAbstraction("counters", func(_ trace.ProcID, proj []trace.Event) string {
		var s, r, i int
		for _, e := range proj {
			switch e.Kind {
			case trace.KindSend:
				s++
			case trace.KindReceive:
				r++
			case trace.KindInternal:
				i++
			}
		}
		return "s" + strconv.Itoa(s) + "r" + strconv.Itoa(r) + "i" + strconv.Itoa(i)
	})
}

// LastEvent abstracts a projection to its final event (or "" when the
// process has not acted): a memoryless process.
func LastEvent() Abstraction {
	return NewAbstraction("last-event", func(_ trace.ProcID, proj []trace.Event) string {
		if len(proj) == 0 {
			return ""
		}
		return proj[len(proj)-1].LocalKey()
	})
}

// Evaluator evaluates formulas under state-based isomorphism over a
// universe. It is knowledge.Evaluator with the abstract relation in
// place of [P]-isomorphism: K and C quantify over the classes and
// components of equal abstract states, and every other operator is
// evaluated as the embedded evaluator evaluates it.
type Evaluator struct {
	*knowledge.Evaluator
	abs Abstraction
	rel *relation
}

// NewEvaluator builds a state-based evaluator. It panics on a quotient,
// by symmetry or by commutation: abstract states are taken member by
// member, so they cannot be read through the computations a quotient
// member stands for; evaluate on the full universe instead.
func NewEvaluator(u *universe.Universe, abs Abstraction) *Evaluator {
	return newEvaluator(u, abs, false)
}

func newEvaluator(u *universe.Universe, abs Abstraction, timed bool) *Evaluator {
	if u.IsQuotient() {
		panic(fmt.Sprintf("stateiso: abstraction %s over a quotient: abstract states are read member by member, not through the computations a member stands for; evaluate on the full universe", abs.Name()))
	}
	rel := newRelation(u, abs, timed)
	return &Evaluator{Evaluator: knowledge.NewRelationEvaluator(u, rel), abs: abs, rel: rel}
}

// Abstraction returns the evaluator's abstraction.
func (e *Evaluator) Abstraction() Abstraction { return e.abs }

// Class returns the members state-isomorphic to member i with respect to
// P: every process in P is in the same abstract state. The slice aliases
// the relation's partition table and MUST be treated as read-only.
func (e *Evaluator) Class(i int, p trace.ProcSet) []int {
	pt := e.rel.Partition(p)
	return pt.MembersOf(pt.ClassOf(i))
}

// Isomorphic reports state isomorphism of members i and j w.r.t. P.
func (e *Evaluator) Isomorphic(i, j int, p trace.ProcSet) bool {
	pt := e.rel.Partition(p)
	return pt.ClassOf(i) == pt.ClassOf(j)
}

// relation is state isomorphism as a knowledge.Relation: members i and
// j are related for P when every process of P has the same label at
// both, a label being an interned abstract state (and, timed, the
// member's length). Partitions are built per process set on first use;
// a relation is safe for concurrent use.
type relation struct {
	n     int
	procs []trace.ProcID
	// label[k][i] is the label of procs[k] at member i.
	label [][]int32

	mu    sync.Mutex
	parts map[string]*universe.Partition

	compOnce sync.Once
	comp     []int32
	ncomp    int
}

// newRelation interns every (member, process) abstract state once.
func newRelation(u *universe.Universe, abs Abstraction, timed bool) *relation {
	type state struct {
		key   string
		clock int
	}
	r := &relation{
		n:     u.Len(),
		procs: u.All().IDs(),
		parts: make(map[string]*universe.Partition),
	}
	r.label = make([][]int32, len(r.procs))
	for k := range r.label {
		r.label[k] = make([]int32, r.n)
	}
	ids := make(map[state]int32)
	for i := range r.n {
		c := u.At(i)
		s := state{}
		if timed {
			s.clock = c.Len()
		}
		for k, p := range r.procs {
			s.key = abs.StateOf(p, c.Projection(trace.Singleton(p)))
			id, ok := ids[s]
			if !ok {
				id = int32(len(ids))
				ids[s] = id
			}
			r.label[k][i] = id
		}
	}
	return r
}

// Partition returns the classes of members agreeing on the label of
// every process of P.
func (r *relation) Partition(p trace.ProcSet) *universe.Partition {
	r.mu.Lock()
	defer r.mu.Unlock()
	pt, ok := r.parts[p.Key()]
	if !ok {
		// Fold P's labels into one per member: each step interns the
		// pair (labels so far, next process's label).
		combined := make([]int32, r.n)
		pairs := make(map[[2]int32]int32)
		for k, id := range r.procs {
			if !p.Contains(id) {
				continue
			}
			clear(pairs)
			for i, l := range combined {
				key := [2]int32{l, r.label[k][i]}
				c, ok := pairs[key]
				if !ok {
					c = int32(len(pairs))
					pairs[key] = c
				}
				combined[i] = c
			}
		}
		pt = universe.PartitionByLabel(p, combined)
		r.parts[p.Key()] = pt
	}
	return pt
}

// Components labels the members by the components of the union of the
// singleton abstract relations.
func (r *relation) Components() ([]int32, int) {
	r.compOnce.Do(func() {
		parts := make([]*universe.Partition, len(r.procs))
		for k, p := range r.procs {
			parts[k] = r.Partition(trace.Singleton(p))
		}
		r.comp, r.ncomp = universe.ComponentsOf(r.n, parts)
	})
	return r.comp, r.ncomp
}

// --- Checks: what survives abstraction ---

// CheckAbstractionSound verifies: (P knows b) under the abstraction
// implies (P knows b) under computation isomorphism, at every member —
// abstract classes are supersets of concrete classes, so abstract
// knowledge is harder to attain but always sound.
func CheckAbstractionSound(abstract *Evaluator, concrete *knowledge.Evaluator, p trace.ProcSet, b knowledge.Formula) error {
	kb := knowledge.Knows(p, b)
	sure := concrete.TruthVector(kb)
	for i, k := range abstract.TruthVector(kb) {
		if k && !sure[i] {
			return fmt.Errorf("stateiso: abstraction %s unsound at member %d", abstract.abs.Name(), i)
		}
	}
	return nil
}

// Lemma4Violation describes a failure of the receive-cannot-lose-
// knowledge law under a lossy abstraction.
type Lemma4Violation struct {
	// MemberX and MemberXE are the universe indexes of x and (x;e).
	MemberX, MemberXE int
	// Event is the receive that destroyed knowledge.
	Event trace.Event
}

// FindLemma4Violation searches for a member (x;e), e a receive on P,
// where P knows b at x but not at (x;e) under the abstraction — the part
// of the paper that does NOT survive lossy state abstraction. It returns
// nil when the law holds throughout the universe (e.g. for FullHistory).
func FindLemma4Violation(e *Evaluator, p trace.ProcSet, b knowledge.Formula) *Lemma4Violation {
	known := e.TruthVector(knowledge.Knows(p, b))
	u := e.Universe()
	for i := 0; i < u.Len(); i++ {
		xe := u.At(i)
		if xe.Len() == 0 {
			continue
		}
		ev := xe.At(xe.Len() - 1)
		if ev.Kind != trace.KindReceive || !ev.IsOn(p) {
			continue
		}
		xi := u.IndexOf(xe.Prefix(xe.Len() - 1))
		if xi < 0 {
			continue
		}
		if known[xi] && !known[i] {
			return &Lemma4Violation{MemberX: xi, MemberXE: i, Event: ev}
		}
	}
	return nil
}
