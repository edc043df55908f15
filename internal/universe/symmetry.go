package universe

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"hpl/internal/trace"
)

// Symmetry reduction: most protocols in this repository (Free systems
// above all) treat some processes as fully interchangeable — renaming p
// and q in every event of a computation yields another computation of
// the system. The full universe therefore contains large orbits of
// computations identical up to renaming, and every downstream layer
// (partitions, knowledge bitsets, CTL sweeps, snapshots) pays for each
// orbit member separately.
//
// A Symmetry declares that interchangeability as a set of disjoint
// process classes; the induced group G is the direct product of the
// symmetric groups on each class. WithSymmetry(g) makes the engine
// enumerate one canonical representative per orbit — the member whose
// sequence of prefix hashes is lexicographically least — and record
// each representative's orbit size, so weighted counts over the full
// universe remain exact. internal/stateiso's state-based isomorphism
// (§6 of the paper) is the semantic foundation: two computations in one
// orbit are indistinguishable by any renaming-invariant ("symmetric")
// formula, which is exactly what quotient evaluation requires and what
// the knowledge layer validates before answering (see
// knowledge.ValidateSymmetric).
//
// Canonicality is decided locally: the quotient is prefix-closed (the
// prefix of a canonical member is canonical), and a child x = c+ev of a
// canonical c is canonical exactly when hash(c+ev) is minimal among
// {hash(c+σ·ev) : σ ∈ Stab(c)}. Because σ·c = c holds position-wise,
// Stab(c) is the pointwise stabilizer of c's *support* — the processes
// appearing as Proc or Peer of any event — so a 64-bit support mask per
// member identifies the stabilizer, and the orbit size of a
// representative is a product of falling factorials over how many
// members of each class its support touches.

// maxSymmetryOrder bounds the order of a declared symmetry group (8!):
// the engine filters children against every non-identity stabilizer
// element, so an astronomically large group is a misconfiguration, not
// a speedup.
const maxSymmetryOrder = 40320

// Symmetry is a declaration of interchangeable process classes. The nil
// (or class-free) Symmetry is the trivial group. Values are immutable
// after construction and safe for concurrent use.
type Symmetry struct {
	// classes holds the nontrivial classes, each sorted, classes ordered
	// by first member. Singleton classes carry no symmetry and are
	// dropped at construction.
	classes [][]trace.ProcID
	order   int64

	// elems lazily materializes the non-identity group elements as
	// renaming maps, for quotient partition construction.
	elemsOnce sync.Once
	elems     []map[trace.ProcID]trace.ProcID
}

// NewSymmetry declares the given classes of interchangeable processes.
// Classes must be disjoint; processes not mentioned (and singleton
// classes) are fixed by the group. The induced group — the direct
// product of the symmetric groups on the classes — must have order at
// most 8! = 40320.
func NewSymmetry(classes ...[]trace.ProcID) (*Symmetry, error) {
	s := &Symmetry{order: 1}
	seen := make(map[trace.ProcID]bool)
	for _, cl := range classes {
		cp := make([]trace.ProcID, 0, len(cl))
		for _, p := range cl {
			if p == "" {
				return nil, fmt.Errorf("universe: symmetry class contains an empty process identifier")
			}
			if seen[p] {
				return nil, fmt.Errorf("universe: process %q appears in two symmetry classes", p)
			}
			seen[p] = true
			cp = append(cp, p)
		}
		if len(cp) < 2 {
			continue // a singleton class declares no symmetry
		}
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		for k := int64(2); k <= int64(len(cp)); k++ {
			s.order *= k
			if s.order > maxSymmetryOrder {
				return nil, fmt.Errorf("universe: symmetry group order exceeds %d", maxSymmetryOrder)
			}
		}
		s.classes = append(s.classes, cp)
	}
	sort.Slice(s.classes, func(i, j int) bool { return s.classes[i][0] < s.classes[j][0] })
	return s, nil
}

// FullSymmetry declares all the given processes interchangeable — the
// full symmetric group, the symmetry of a Free system. At most 8
// processes (see NewSymmetry's order bound).
func FullSymmetry(procs ...trace.ProcID) (*Symmetry, error) {
	return NewSymmetry(procs)
}

// SymmetricProtocol is implemented by protocols that declare their own
// process symmetry: Init must be equal within each class (checked at
// enumeration time) and Steps/AfterStep/Deliver must be equivariant
// under class renamings (the protocol's assertion; the differential
// tests are the safety net). Free systems implement it.
type SymmetricProtocol interface {
	Protocol
	// Symmetry returns the protocol's process symmetry, or nil when it
	// has none.
	Symmetry() *Symmetry
}

// InferSymmetry returns the symmetry a protocol declares about itself,
// or nil when it declares none.
func InferSymmetry(p Protocol) *Symmetry {
	if sp, ok := p.(SymmetricProtocol); ok {
		return sp.Symmetry()
	}
	return nil
}

// Trivial reports whether the group is the identity group (no
// nontrivial classes). A nil Symmetry is trivial.
func (s *Symmetry) Trivial() bool { return s == nil || len(s.classes) == 0 }

// Order returns the number of group elements (1 for the trivial group).
func (s *Symmetry) Order() int64 {
	if s == nil {
		return 1
	}
	return s.order
}

// Classes returns a copy of the nontrivial classes, each sorted,
// ordered by first member.
func (s *Symmetry) Classes() [][]trace.ProcID {
	if s == nil {
		return nil
	}
	out := make([][]trace.ProcID, len(s.classes))
	for i, cl := range s.classes {
		out[i] = append([]trace.ProcID(nil), cl...)
	}
	return out
}

// Invariant reports whether the process set is a union of orbits — each
// class is either contained in p or disjoint from it. Knowledge
// operators on a quotient universe require invariant process sets (see
// knowledge.ValidateSymmetric).
func (s *Symmetry) Invariant(p trace.ProcSet) bool {
	if s == nil {
		return true
	}
	for _, cl := range s.classes {
		in := 0
		for _, q := range cl {
			if p.Contains(q) {
				in++
			}
		}
		if in != 0 && in != len(cl) {
			return false
		}
	}
	return true
}

// FixesAll reports whether every given process is fixed by the whole
// group, i.e. belongs to no nontrivial class. Predicates supported only
// on fixed processes are automatically invariant.
func (s *Symmetry) FixesAll(procs ...trace.ProcID) bool {
	if s == nil {
		return true
	}
	for _, p := range procs {
		for _, cl := range s.classes {
			for _, q := range cl {
				if p == q {
					return false
				}
			}
		}
	}
	return true
}

// Key returns a canonical textual encoding of the group, usable as a
// cache key: "{a,b}{c,d,e}", "" for the trivial group.
func (s *Symmetry) Key() string {
	if s.Trivial() {
		return ""
	}
	var b strings.Builder
	for _, cl := range s.classes {
		b.WriteByte('{')
		for i, p := range cl {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(p))
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Equal reports whether two symmetries declare the same classes.
func (s *Symmetry) Equal(o *Symmetry) bool {
	if s.Trivial() || o.Trivial() {
		return s.Trivial() && o.Trivial()
	}
	if len(s.classes) != len(o.classes) {
		return false
	}
	for i, cl := range s.classes {
		if len(cl) != len(o.classes[i]) {
			return false
		}
		for j, p := range cl {
			if p != o.classes[i][j] {
				return false
			}
		}
	}
	return true
}

// elements returns the non-identity group elements as renaming maps
// (processes outside every class are absent, hence fixed). Built once,
// shared; callers must not mutate the maps.
func (s *Symmetry) elements() []map[trace.ProcID]trace.ProcID {
	if s.Trivial() {
		return nil
	}
	s.elemsOnce.Do(func() {
		elems := []map[trace.ProcID]trace.ProcID{{}}
		for _, cl := range s.classes {
			var next []map[trace.ProcID]trace.ProcID
			forEachPerm(len(cl), func(perm []int) {
				for _, base := range elems {
					m := make(map[trace.ProcID]trace.ProcID, len(base)+len(cl))
					for k, v := range base {
						m[k] = v
					}
					for i, j := range perm {
						m[cl[i]] = cl[j]
					}
					next = append(next, m)
				}
			})
			elems = next
		}
		// Drop the identity (the first element: forEachPerm yields the
		// identity permutation first and composition preserves order).
		s.elems = elems[1:]
	})
	return s.elems
}

// forEachPerm calls fn with every permutation of {0..n-1}, the identity
// first. The slice is reused; fn must not retain it.
func forEachPerm(n int, fn func([]int)) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(idx)
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
}

// renameProc applies a renaming map (identity off its domain).
func renameProc(sigma map[trace.ProcID]trace.ProcID, p trace.ProcID) trace.ProcID {
	if q, ok := sigma[p]; ok {
		return q
	}
	return p
}

// renameEvent applies a process renaming to an engine-canonical event,
// rewriting the process references embedded in the event and message
// identifiers ("p#2" → "q#2", "p:1" → "q:1"). Sequence numbers are
// preserved: a renaming maps the k-th event on p to the k-th event on
// σp.
func renameEvent(ev trace.Event, sigma map[trace.ProcID]trace.ProcID) trace.Event {
	out := ev
	out.Proc = renameProc(sigma, ev.Proc)
	if out.Proc != ev.Proc {
		id := string(ev.ID)
		out.ID = trace.EventID(string(out.Proc) + id[strings.LastIndexByte(id, '#'):])
	}
	if ev.Peer != "" {
		out.Peer = renameProc(sigma, ev.Peer)
	}
	if ev.Msg != "" {
		if from := ev.Msg.Sender(); renameProc(sigma, from) != from {
			m := string(ev.Msg)
			out.Msg = trace.MsgID(string(renameProc(sigma, from)) + m[strings.LastIndexByte(m, ':'):])
		}
	}
	return out
}

// renameComputation applies a process renaming to every event of c.
func renameComputation(c *trace.Computation, sigma map[trace.ProcID]trace.ProcID) *trace.Computation {
	rc := trace.Empty()
	for _, ev := range c.Events() {
		rc = trace.Extend(rc, renameEvent(ev, sigma))
	}
	return rc
}

// symGroup is the engine-side compilation of a Symmetry against a
// concrete process list: every group element as a proc-index
// permutation, with per-element moved-index masks for constant-time
// stabilizer filtering, and per-class index masks for orbit-size
// computation.
type symGroup struct {
	sym *Symmetry
	// perms[g][i] is the image of proc index i under element g;
	// perms[0] is the identity.
	perms [][]int32
	// moved[g] has bit i set when perms[g][i] != i.
	moved []uint64
	// classBit[c] has bit i set when procs[i] belongs to class c.
	classBit  []uint64
	classSize []int64
}

// newSymGroup compiles s for the given process list, or returns (nil,
// nil) for the trivial group. The support-mask machinery limits
// symmetric enumeration to 64 processes.
func newSymGroup(s *Symmetry, procs []trace.ProcID, procIdx map[trace.ProcID]int32) (*symGroup, error) {
	if s.Trivial() {
		return nil, nil
	}
	if len(procs) > 64 {
		return nil, fmt.Errorf("universe: symmetry supports at most 64 processes, protocol has %d", len(procs))
	}
	g := &symGroup{
		sym:       s,
		classBit:  make([]uint64, len(s.classes)),
		classSize: make([]int64, len(s.classes)),
	}
	classIdx := make([][]int32, len(s.classes))
	for ci, cl := range s.classes {
		idx := make([]int32, len(cl))
		for i, p := range cl {
			pi, ok := procIdx[p]
			if !ok {
				return nil, fmt.Errorf("universe: symmetry class mentions %q, which is not a process of the protocol", p)
			}
			idx[i] = pi
			g.classBit[ci] |= 1 << uint(pi)
		}
		classIdx[ci] = idx
		g.classSize[ci] = int64(len(cl))
	}
	id := make([]int32, len(procs))
	for i := range id {
		id[i] = int32(i)
	}
	g.perms = [][]int32{id}
	for _, idx := range classIdx {
		var next [][]int32
		forEachPerm(len(idx), func(perm []int) {
			for _, base := range g.perms {
				p := append([]int32(nil), base...)
				for i, j := range perm {
					p[idx[i]] = idx[j]
				}
				next = append(next, p)
			}
		})
		g.perms = next
	}
	g.moved = make([]uint64, len(g.perms))
	for gi, perm := range g.perms {
		for i, v := range perm {
			if int32(i) != v {
				g.moved[gi] |= 1 << uint(i)
			}
		}
	}
	return g, nil
}

// orbitSize returns the size of the G-orbit of a computation whose
// support is mask: the product over classes of falling factorials
// n·(n-1)···(n-t+1), where t is how many of the class's n members the
// support touches. (The stabilizer of the support is the pointwise
// stabilizer of the touched processes, so orbit = |G| / |Stab| reduces
// to exactly this product.)
func (g *symGroup) orbitSize(mask uint64) int64 {
	size := int64(1)
	for ci, bit := range g.classBit {
		t := int64(bits.OnesCount64(mask & bit))
		n := g.classSize[ci]
		for k := int64(0); k < t; k++ {
			size *= n - k
		}
	}
	return size
}
