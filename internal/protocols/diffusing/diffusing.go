// Package diffusing implements diffusing computations (an underlying
// basic computation started by a root, spreading by basic messages) and
// termination detectors layered over them:
//
//   - Dijkstra–Scholten (RunDS): every basic message is eventually
//     acknowledged by a signal; overhead = number of basic messages.
//   - Credit / weight throwing (RunCredit): messages carry weight; passive
//     processes return accumulated weight to the root; overhead = number
//     of passive transitions.
//   - A deliberately broken bounded-overhead detector (RunQuiet) used by
//     the termination experiment to exhibit the paper's §5 impossibility:
//     it declares termination after a fixed number of locally quiet
//     steps, and there are runs where it declares while basic messages
//     are still in flight.
//
// Each detector is one universe.Protocol (NewDS, NewCredit, NewQuiet):
// the Run functions walk it at random and count basic and control
// messages from the computation, and the same definition can be
// enumerated exhaustively or wrapped by faults.Wrap.
//
// The paper's lower bound (§5) says any correct detector needs, in
// general, at least as many overhead messages as there are basic
// messages; the experiment harness in internal/termination sweeps these
// detectors and reports the overhead/underlying ratio.
package diffusing

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Message tags used by the protocols.
const (
	TagBasic  = "basic"
	TagSignal = "signal"
	TagCredit = "credit"
	// TagDetect marks the internal event the root records at detection.
	TagDetect = "detect"
)

// Topology is an undirected communication graph.
type Topology struct {
	Procs     []trace.ProcID
	Neighbors map[trace.ProcID][]trace.ProcID
}

// Chain builds the path topology p0 - p1 - … - p(n-1).
func Chain(n int) Topology { return pathLike(n, false) }

// Ring builds the cycle topology over n processes.
func Ring(n int) Topology { return pathLike(n, true) }

func pathLike(n int, wrap bool) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	for i := 0; i < n; i++ {
		var nbrs []trace.ProcID
		if i > 0 {
			nbrs = append(nbrs, procName(i-1))
		} else if wrap && n > 2 {
			nbrs = append(nbrs, procName(n-1))
		}
		if i+1 < n {
			nbrs = append(nbrs, procName(i+1))
		} else if wrap && n > 2 {
			nbrs = append(nbrs, procName(0))
		}
		t.Neighbors[procName(i)] = nbrs
	}
	return t
}

// Star builds the star topology with process 0 as the hub and n-1
// leaves. Combined with Workload.SinksExceptRoot and FanOut equal to the
// message budget, it is the adversarial instance of the §5 lower bound:
// every basic message engages a fresh leaf, which must individually
// report back.
func Star(n int) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	hub := t.Procs[0]
	for _, leaf := range t.Procs[1:] {
		t.Neighbors[hub] = append(t.Neighbors[hub], leaf)
		t.Neighbors[leaf] = []trace.ProcID{hub}
	}
	return t
}

// Complete builds the complete graph over n processes.
func Complete(n int) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	for _, p := range t.Procs {
		for _, q := range t.Procs {
			if p != q {
				t.Neighbors[p] = append(t.Neighbors[p], q)
			}
		}
	}
	return t
}

func procName(i int) trace.ProcID { return trace.ProcID(fmt.Sprintf("n%02d", i)) }

// Workload parameterizes a diffusing computation.
type Workload struct {
	Topo Topology
	// Root starts the computation; defaults to the first process.
	Root trace.ProcID
	// TotalMessages is the budget of basic messages, held by the root
	// at the start and handed on with basic messages (see System).
	TotalMessages int
	// FanOut is how many basic messages an active process spreads its
	// budget over per activation.
	FanOut int
	// SinksExceptRoot makes every non-root process a pure sink (fan-out
	// 0): it activates on a basic message and immediately turns passive.
	// With a star topology this is the adversarial instance that forces
	// one control message per basic message out of any correct detector.
	SinksExceptRoot bool
	// RoundRobin makes senders cycle deterministically through their
	// neighbours instead of offering each of them; combined with a star
	// whose leaf count is at least the message budget it guarantees that
	// every basic message engages a distinct process.
	RoundRobin bool
	// Seed drives the walk, which chooses both the schedule and the
	// senders' targets.
	Seed int64
}

func (w Workload) fanOutFor(p trace.ProcID) int {
	if w.SinksExceptRoot && p != w.Root {
		return 0
	}
	return w.FanOut
}

func (w Workload) withDefaults() (Workload, error) {
	if len(w.Topo.Procs) == 0 {
		return w, errors.New("diffusing: empty topology")
	}
	if w.Root == "" {
		w.Root = w.Topo.Procs[0]
	}
	if !slices.Contains(w.Topo.Procs, w.Root) {
		return w, fmt.Errorf("diffusing: root %s not in topology", w.Root)
	}
	if w.FanOut <= 0 {
		w.FanOut = 2
	}
	if w.TotalMessages < 0 {
		return w, errors.New("diffusing: negative message budget")
	}
	return w, nil
}

// Result reports one detector run.
type Result struct {
	// Basic is the number of underlying (basic) messages sent.
	Basic int
	// Control is the number of overhead messages sent by the detector.
	Control int
	// Detected reports whether the detector announced termination.
	Detected bool
	// Correct reports whether the announcement was sound: at the
	// detection point no basic message was in flight and no basic
	// message is sent afterwards. Vacuously true when !Detected.
	Correct bool
	// Comp is the recorded computation.
	Comp *trace.Computation
}

// Ratio returns Control / Basic, the overhead ratio the §5 bound speaks
// about; it returns 0 when no basic messages were sent.
func (r Result) Ratio() float64 {
	if r.Basic == 0 {
		return 0
	}
	return float64(r.Control) / float64(r.Basic)
}

type detector int

const (
	ds detector = iota
	credit
	quiet
)

// tagTick marks an idle turn of the quiet detector's root.
const tagTick = "tick"

// System is a workload under one termination detector, as a
// universe.Protocol: enumeration, the Run functions' random walks and
// faults.Wrap all take this one definition.
//
// The basic computation: the root starts with the whole message budget,
// and a process holding budget is active. Each basic message it sends
// spends one unit and hands on a share of the rest, carried in its tag
// "basic:<units>" as credit carries weight: the units left are split
// evenly over the FanOut sends of an activation, so the last of them
// hands on all that remains, and sinks are handed none. A process with
// no budget is passive. Every unit is thus either spent or handed on,
// and Basic == TotalMessages on every run that reaches quiescence. A
// process may send to any neighbour, one action each, and the walk
// chooses; under RoundRobin a counter in the sender's state picks the
// next neighbour instead.
type System struct {
	w         Workload
	det       detector
	threshold int
}

var _ universe.Protocol = (*System)(nil)

// NewDS builds the workload under the Dijkstra–Scholten detector: every
// basic message is acknowledged by one signal — a message that engages
// an idle process when that process disengages, any other one when the
// receiver gets to it — and the root detects when it is passive and
// every message it sent has been signalled.
func NewDS(w Workload) (*System, error) { return newSystem(w, ds, 0) }

// NewCredit builds the workload under weight throwing: the root owns
// weight 1, every basic message carries half its sender's weight in its
// tag "basic:<units>:<weight>" (a base-2 fraction, see readWeight), a
// process turning passive returns all its weight to the root in one
// credit message, and the root detects when it is passive and all
// weight it lent has come back.
func NewCredit(w Workload) (*System, error) { return newSystem(w, credit, 0) }

// NewQuiet builds the workload under a detector that uses no overhead
// messages at all: the root declares termination after threshold
// consecutive idle turns (internal "tick" events, the threshold-th of
// which is the detection). This detector is unsound — the termination
// experiment exhibits runs where it declares while basic messages are
// in flight, the concrete face of the paper's argument that the
// computation is isomorphic, with respect to the root, to one that has
// terminated.
func NewQuiet(w Workload, threshold int) (*System, error) {
	if threshold <= 0 {
		return nil, errors.New("diffusing: quiet threshold must be positive")
	}
	return newSystem(w, quiet, threshold)
}

func newSystem(w Workload, det detector, threshold int) (*System, error) {
	w, err := w.withDefaults()
	if err != nil {
		return nil, err
	}
	return &System{w: w, det: det, threshold: threshold}, nil
}

// node is a decoded local state. Weights are binary fractions (see
// readWeight).
type node struct {
	budget  int // units of the message budget held
	pending int // basic sends left in the current activation
	rr      int // RoundRobin: basic messages sent so far
	// Dijkstra–Scholten.
	engaged bool
	parent  trace.ProcID
	deficit int    // basic messages sent and not yet signalled
	owed    string // comma-separated senders of unacknowledged non-engaging messages
	// Credit.
	weight, lent string
	// Quiet root.
	idle int
	done bool // root: termination announced
}

func (n node) String() string {
	f := [...]string{
		strconv.Itoa(n.budget), strconv.Itoa(n.pending), strconv.Itoa(n.rr),
		strconv.FormatBool(n.engaged), string(n.parent), strconv.Itoa(n.deficit),
		n.owed, n.weight, n.lent, strconv.Itoa(n.idle), strconv.FormatBool(n.done),
	}
	return strings.Join(f[:], "|")
}

func parseNode(state string) node {
	var f [11]string
	for i := range len(f) - 1 {
		f[i], state, _ = strings.Cut(state, "|")
	}
	f[len(f)-1] = state
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	return node{
		budget: atoi(f[0]), pending: atoi(f[1]), rr: atoi(f[2]),
		engaged: f[3] == "true", parent: trace.ProcID(f[4]), deficit: atoi(f[5]),
		owed: f[6], weight: f[7], lent: f[8], idle: atoi(f[9]), done: f[10] == "true",
	}
}

// readWeight returns the weight s as num / 2^exp. Weights are exact
// binary fractions written in base 2 — "1", "0.1" for a half, "0.011"
// for three eighths — since weight throwing only halves and adds them:
// base-2 text reads and writes in linear time, with no gcd.
func readWeight(s string) (num *big.Int, exp int) {
	whole, frac, _ := strings.Cut(s, ".")
	num, _ = new(big.Int).SetString(whole+frac, 2)
	return num, len(frac)
}

// writeWeight writes num / 2^exp in base 2, with no trailing zero after
// the point. It may modify num.
func writeWeight(num *big.Int, exp int) string {
	if num.Sign() == 0 {
		return "0"
	}
	shift := min(int(num.TrailingZeroBits()), exp)
	num.Rsh(num, uint(shift))
	exp -= shift
	sign := ""
	if num.Sign() < 0 {
		sign = "-"
		num.Neg(num)
	}
	bits := num.Text(2)
	if exp == 0 {
		return sign + bits
	}
	if pad := exp + 1 - len(bits); pad > 0 {
		bits = strings.Repeat("0", pad) + bits
	}
	return sign + bits[:len(bits)-exp] + "." + bits[len(bits)-exp:]
}

// halfWeight returns a / 2.
func halfWeight(a string) string {
	num, exp := readWeight(a)
	return writeWeight(num, exp+1)
}

// addWeight returns a + sign·b, for sign ±1.
func addWeight(a string, sign int, b string) string {
	x, ex := readWeight(a)
	y, ey := readWeight(b)
	e := max(ex, ey)
	x.Lsh(x, uint(e-ex))
	y.Lsh(y, uint(e-ey))
	if sign < 0 {
		y.Neg(y)
	}
	return writeWeight(x.Add(x, y), e)
}

// Procs returns the topology's processes.
func (s *System) Procs() []trace.ProcID { return slices.Clone(s.w.Topo.Procs) }

// Init gives the root the budget (and, under credit, weight 1).
func (s *System) Init(p trace.ProcID) string {
	n := node{weight: "0", lent: "0"}
	if p == s.w.Root {
		n.budget, n.engaged = s.w.TotalMessages, true
		n.weight = "1"
	}
	return n.String()
}

// Steps offers a basic send to each candidate target while the process
// holds budget, and the detector's own action: under DS an owed
// acknowledgement, else the disengaging signal or the root's
// detection; under credit the passive process's weight return or the
// root's detection; under quiet the passive root's tick or detection.
func (s *System) Steps(p trace.ProcID, state string) []universe.Action {
	n := parseNode(state)
	root := p == s.w.Root
	var out []universe.Action
	if nbrs := s.w.Topo.Neighbors[p]; n.budget > 0 && len(nbrs) > 0 {
		if s.w.RoundRobin {
			nbrs = nbrs[n.rr%len(nbrs) : n.rr%len(nbrs)+1]
		}
		// A basic tag carries the units handed on — a share of the
		// budget left, none to a sink — and, under credit, half of p's
		// weight.
		var weight string
		if s.det == credit {
			weight = ":" + halfWeight(n.weight)
		}
		tag := TagBasic + ":" + strconv.Itoa((n.budget-1)/s.activation(p, n)) + weight
		sinkTag := TagBasic + ":0" + weight
		for _, q := range nbrs {
			t := tag
			if s.w.fanOutFor(q) == 0 {
				t = sinkTag
			}
			out = append(out, universe.Action{Kind: trace.KindSend, To: q, Tag: t})
		}
	}
	passive := n.budget == 0
	detect := universe.Action{Kind: trace.KindInternal, Tag: TagDetect}
	switch s.det {
	case ds:
		switch {
		case n.owed != "":
			first, _, _ := strings.Cut(n.owed, ",")
			out = append(out, universe.Action{Kind: trace.KindSend, To: trace.ProcID(first), Tag: TagSignal})
		case !passive || n.deficit > 0:
		case !root && n.engaged:
			out = append(out, universe.Action{Kind: trace.KindSend, To: n.parent, Tag: TagSignal})
		case root && !n.done:
			out = append(out, detect)
		}
	case credit:
		switch {
		case !passive:
		case !root && n.weight != "0":
			out = append(out, universe.Action{Kind: trace.KindSend, To: s.w.Root, Tag: TagCredit + ":" + n.weight})
		case root && !n.done && n.lent == "0":
			out = append(out, detect)
		}
	case quiet:
		switch {
		case !passive || !root || n.done:
		case n.idle+1 >= s.threshold:
			out = append(out, detect)
		default:
			out = append(out, universe.Action{Kind: trace.KindInternal, Tag: tagTick})
		}
	}
	return out
}

// activation returns the sends left in p's current activation, which
// starts afresh when the last one has ended.
func (s *System) activation(p trace.ProcID, n node) int {
	if n.pending > 0 {
		return n.pending
	}
	return s.w.fanOutFor(p)
}

// AfterStep applies a step's effect on the sender's state.
func (s *System) AfterStep(p trace.ProcID, state string, a universe.Action) string {
	n := parseNode(state)
	switch kind, units, weight := splitTag(a.Tag); kind {
	case TagBasic:
		n.pending = s.activation(p, n) - 1
		n.budget -= 1 + units
		if n.budget == 0 {
			n.pending = 0
		}
		if s.w.RoundRobin {
			n.rr++
		}
		switch s.det {
		case ds:
			n.deficit++
		case credit:
			n.weight = addWeight(n.weight, -1, weight)
			if p == s.w.Root {
				n.lent = addWeight(n.lent, +1, weight)
			}
		}
	case TagSignal:
		if n.owed != "" {
			_, n.owed, _ = strings.Cut(n.owed, ",")
		} else {
			n.engaged, n.parent = false, ""
		}
	case TagCredit:
		n.weight = "0"
	case tagTick:
		n.idle++
	case TagDetect:
		n.done = true
	}
	return n.String()
}

// Deliver applies a received message: a basic message hands on its
// units (and weight), engages an idle process under DS or puts an
// acknowledgement in its debt, and resets the quiet root's idle count;
// a signal or credit message settles the receiver's account. Messages
// of another detector are inadmissible.
func (s *System) Deliver(p trace.ProcID, state string, from trace.ProcID, tag string) (string, bool) {
	n := parseNode(state)
	kind, units, weight := splitTag(tag)
	switch {
	case kind == TagBasic:
		n.budget += units
		n.idle = 0
		switch s.det {
		case ds:
			if n.engaged {
				n.owed = strings.TrimPrefix(n.owed+","+string(from), ",")
			} else {
				n.engaged, n.parent = true, from
			}
		case credit:
			if p == s.w.Root {
				// Weight arriving back at the root is no longer lent.
				n.lent = addWeight(n.lent, -1, weight)
			} else {
				n.weight = addWeight(n.weight, +1, weight)
			}
		}
	case kind == TagSignal && s.det == ds:
		n.deficit--
	case kind == TagCredit && s.det == credit:
		n.lent = addWeight(n.lent, -1, weight)
	default:
		return "", false
	}
	return n.String(), true
}

// splitTag parses "basic:<units>[:<weight>]" and "credit:<weight>"; any
// other tag is returned as its own kind.
func splitTag(tag string) (kind string, units int, weight string) {
	kind, rest, _ := strings.Cut(tag, ":")
	switch kind {
	case TagBasic:
		u, w, _ := strings.Cut(rest, ":")
		units, _ = strconv.Atoi(u)
		return kind, units, w
	case TagCredit:
		return kind, 0, rest
	}
	return kind, 0, ""
}

// RunDS walks the workload under the Dijkstra–Scholten detector.
func RunDS(w Workload) (Result, error) {
	sys, err := NewDS(w)
	return run(sys, err)
}

// RunCredit walks the workload under the weight-throwing detector.
func RunCredit(w Workload) (Result, error) {
	sys, err := NewCredit(w)
	return run(sys, err)
}

// RunQuiet walks the workload under the zero-overhead quiet detector
// with the given idle threshold.
func RunQuiet(w Workload, threshold int) (Result, error) {
	sys, err := NewQuiet(w, threshold)
	return run(sys, err)
}

// run walks sys to quiescence, seeded by the workload, and analyses the
// computation.
func run(sys *System, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	// Generous bound: every basic message can cause a few control
	// messages, receives, and idle ticks.
	budget := 40*(sys.w.TotalMessages+len(sys.w.Topo.Procs)) + 200
	comp, err := universe.Walk(sys, universe.WalkConfig{Seed: sys.w.Seed, MaxEvents: budget})
	if err != nil {
		return Result{}, fmt.Errorf("diffusing: %w", err)
	}
	return analyse(comp), nil
}

// analyse computes the Result from the recorded computation: the basic
// and control messages are its sends with and without a basic tag.
func analyse(comp *trace.Computation) Result {
	res := Result{Comp: comp, Correct: true}
	detectIdx := -1
	for i := 0; i < comp.Len(); i++ {
		e := comp.At(i)
		switch {
		case e.Kind == trace.KindSend && IsBasicTag(e.Tag):
			res.Basic++
		case e.Kind == trace.KindSend:
			res.Control++
		case e.Kind == trace.KindInternal && e.Tag == TagDetect && detectIdx < 0:
			detectIdx = i
		}
	}
	if detectIdx < 0 {
		return res
	}
	res.Detected = true
	// Soundness: at detection no basic message in flight, and no basic
	// message is sent afterwards.
	prefix := comp.Prefix(detectIdx + 1)
	for _, e := range prefix.InFlight() {
		if IsBasicTag(e.Tag) {
			res.Correct = false
		}
	}
	for i := detectIdx + 1; i < comp.Len(); i++ {
		e := comp.At(i)
		if e.Kind == trace.KindSend && IsBasicTag(e.Tag) {
			res.Correct = false
		}
	}
	return res
}

// IsBasicTag reports whether the tag marks an underlying (basic)
// message: "basic", or "basic:" followed by the units of budget handed
// on and, under credit, the weight carried.
func IsBasicTag(tag string) bool {
	return tag == TagBasic || strings.HasPrefix(tag, TagBasic+":")
}

// SortedProcs returns the topology's processes in canonical order (for
// deterministic reporting).
func (t Topology) SortedProcs() []trace.ProcID {
	cp := append([]trace.ProcID(nil), t.Procs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp
}
