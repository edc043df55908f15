// Package echo implements the echo algorithm (propagation of information
// with feedback) on an arbitrary connected undirected graph: an initiator
// floods a wave; each process forwards the wave to its other neighbours
// on first contact and echoes back once all its neighbours have answered;
// the initiator decides when all of its neighbours have echoed.
//
// The algorithm is a canonical "process chain" generator: when the
// initiator decides, there is a process chain <initiator, v, initiator>
// through every vertex v (Theorem 1 territory), which is exactly why the
// decision carries knowledge — the tests verify those chains on the
// recorded computations.
//
// The algorithm is one universe.Protocol (System): the same definition
// is enumerated exhaustively, walked at random by Run, and wrapped by
// faults.Wrap.
package echo

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Message tags.
const (
	TagWave = "wave"
	TagEcho = "echo"
	// TagDecide marks the initiator's decision event.
	TagDecide = "decide"
)

// Graph is an undirected graph given as adjacency lists; it must be
// symmetric and connected for the algorithm to terminate correctly.
type Graph struct {
	Procs     []trace.ProcID
	Neighbors map[trace.ProcID][]trace.ProcID
}

// Validate checks symmetry and connectivity.
func (g Graph) Validate() error {
	if len(g.Procs) == 0 {
		return errors.New("echo: empty graph")
	}
	idx := make(map[trace.ProcID]bool, len(g.Procs))
	for _, p := range g.Procs {
		idx[p] = true
	}
	for p, nbrs := range g.Neighbors {
		if !idx[p] {
			return fmt.Errorf("echo: adjacency for unknown process %s", p)
		}
		for _, q := range nbrs {
			if !idx[q] {
				return fmt.Errorf("echo: %s adjacent to unknown %s", p, q)
			}
			if !slices.Contains(g.Neighbors[q], p) {
				return fmt.Errorf("echo: edge %s-%s not symmetric", p, q)
			}
		}
	}
	// Connectivity by BFS from the first process.
	seen := map[trace.ProcID]bool{g.Procs[0]: true}
	queue := []trace.ProcID{g.Procs[0]}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range g.Neighbors[p] {
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	if len(seen) != len(g.Procs) {
		return errors.New("echo: graph not connected")
	}
	return nil
}

// System is the echo algorithm on a graph from one initiator, as a
// universe.Protocol: enumeration, Run's random walk and faults.Wrap all
// take this one definition.
//
// A process's local state is "<parent>|<sent>|<answers>|<done>". The
// parent is empty until the first wave arrives, and the initiator's own
// name for the initiator. sent counts the waves forwarded so far, to the
// neighbours other than the parent in adjacency order. answers counts
// the waves and echoes received from neighbours after the first wave.
// done is 1 once the process has echoed to its parent or, for the
// initiator, decided.
type System struct {
	g         Graph
	initiator trace.ProcID
}

var _ universe.Protocol = (*System)(nil)

// New validates the graph and the initiator and builds the system.
func New(g Graph, initiator trace.ProcID) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !slices.Contains(g.Procs, initiator) {
		return nil, fmt.Errorf("echo: initiator %s not in graph", initiator)
	}
	return &System{g: g, initiator: initiator}, nil
}

// Procs returns the graph's processes.
func (s *System) Procs() []trace.ProcID { return slices.Clone(s.g.Procs) }

// node is a decoded local state.
type node struct {
	parent        trace.ProcID
	sent, answers int
	done          bool
}

func (n node) String() string {
	done := "0"
	if n.done {
		done = "1"
	}
	return string(n.parent) + "|" + strconv.Itoa(n.sent) + "|" + strconv.Itoa(n.answers) + "|" + done
}

func parseNode(state string) node {
	f := strings.Split(state, "|")
	sent, _ := strconv.Atoi(f[1])
	answers, _ := strconv.Atoi(f[2])
	return node{parent: trace.ProcID(f[0]), sent: sent, answers: answers, done: f[3] == "1"}
}

// Init gives the initiator itself as parent: it has seen the wave.
func (s *System) Init(p trace.ProcID) string {
	if p == s.initiator {
		return node{parent: p}.String()
	}
	return node{}.String()
}

// targets returns the neighbours p forwards the wave to: all but its
// parent.
func (s *System) targets(p, parent trace.ProcID) []trace.ProcID {
	var out []trace.ProcID
	for _, q := range s.g.Neighbors[p] {
		if q != parent {
			out = append(out, q)
		}
	}
	return out
}

// Steps forwards the wave to the next target; once every target has
// it, a process echoes to its parent when every neighbour but the
// parent has answered, and the initiator decides when every neighbour
// has.
func (s *System) Steps(p trace.ProcID, state string) []universe.Action {
	n := parseNode(state)
	if n.parent == "" || n.done {
		return nil
	}
	if ts := s.targets(p, n.parent); n.sent < len(ts) {
		return []universe.Action{{Kind: trace.KindSend, To: ts[n.sent], Tag: TagWave}}
	}
	switch nbrs := len(s.g.Neighbors[p]); {
	case p == s.initiator && n.answers == nbrs:
		return []universe.Action{{Kind: trace.KindInternal, Tag: TagDecide}}
	case p != s.initiator && n.answers == nbrs-1:
		return []universe.Action{{Kind: trace.KindSend, To: n.parent, Tag: TagEcho}}
	}
	return nil
}

// AfterStep counts a forwarded wave, or marks the echo or decision.
func (s *System) AfterStep(_ trace.ProcID, state string, a universe.Action) string {
	n := parseNode(state)
	if a.Tag == TagWave {
		n.sent++
	} else {
		n.done = true
	}
	return n.String()
}

// Deliver takes the first wave's sender as parent and counts every
// later wave or echo as an answer.
func (s *System) Deliver(_ trace.ProcID, state string, from trace.ProcID, tag string) (string, bool) {
	if tag != TagWave && tag != TagEcho {
		return "", false
	}
	n := parseNode(state)
	if n.parent == "" {
		n.parent = from
	} else {
		n.answers++
	}
	return n.String(), true
}

// Result reports one echo run.
type Result struct {
	// Messages is the total number of wave+echo messages (2·|E| on a
	// correct run).
	Messages int
	// Decided reports whether the initiator decided.
	Decided bool
	// Comp is the recorded computation.
	Comp *trace.Computation
}

// Run walks the echo algorithm from the given initiator to quiescence.
func Run(g Graph, initiator trace.ProcID, seed int64) (Result, error) {
	sys, err := New(g, initiator)
	if err != nil {
		return Result{}, err
	}
	comp, err := universe.Walk(sys, universe.WalkConfig{Seed: seed})
	if err != nil {
		return Result{}, fmt.Errorf("echo: %w", err)
	}
	res := Result{Comp: comp}
	for _, e := range comp.Events() {
		switch {
		case e.Kind == trace.KindSend && (e.Tag == TagWave || e.Tag == TagEcho):
			res.Messages++
		case e.Kind == trace.KindInternal && e.Tag == TagDecide:
			res.Decided = true
		}
	}
	return res, nil
}

// Edges counts the undirected edges of the graph.
func (g Graph) Edges() int {
	n := 0
	for _, nbrs := range g.Neighbors {
		n += len(nbrs)
	}
	return n / 2
}

// GridGraph builds an r×c grid graph (4-neighbourhood).
func GridGraph(r, c int) Graph {
	g := Graph{Neighbors: make(map[trace.ProcID][]trace.ProcID, r*c)}
	name := func(i, j int) trace.ProcID { return trace.ProcID(fmt.Sprintf("g%d_%d", i, j)) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			g.Procs = append(g.Procs, name(i, j))
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			p := name(i, j)
			if i > 0 {
				g.Neighbors[p] = append(g.Neighbors[p], name(i-1, j))
			}
			if i < r-1 {
				g.Neighbors[p] = append(g.Neighbors[p], name(i+1, j))
			}
			if j > 0 {
				g.Neighbors[p] = append(g.Neighbors[p], name(i, j-1))
			}
			if j < c-1 {
				g.Neighbors[p] = append(g.Neighbors[p], name(i, j+1))
			}
		}
	}
	return g
}

// StarGraph builds a star with the given hub and n leaves.
func StarGraph(n int) Graph {
	g := Graph{Neighbors: make(map[trace.ProcID][]trace.ProcID, n+1)}
	hub := trace.ProcID("hub")
	g.Procs = append(g.Procs, hub)
	for i := 0; i < n; i++ {
		leaf := trace.ProcID(fmt.Sprintf("leaf%d", i))
		g.Procs = append(g.Procs, leaf)
		g.Neighbors[hub] = append(g.Neighbors[hub], leaf)
		g.Neighbors[leaf] = []trace.ProcID{hub}
	}
	return g
}
