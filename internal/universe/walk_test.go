package universe

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hpl/internal/trace"
)

// pingPong: p sends n pings to q, and q answers each with a pong.
// States count p's pings sent and q's pongs owed.
type pingPong struct{ n int }

func (pingPong) Procs() []trace.ProcID { return []trace.ProcID{"p", "q"} }

func (pingPong) Init(trace.ProcID) string { return "0" }

func (pp pingPong) Steps(p trace.ProcID, state string) []Action {
	k, _ := strconv.Atoi(state)
	switch {
	case p == "p" && k < pp.n:
		return []Action{{Kind: trace.KindSend, To: "q", Tag: "ping"}}
	case p == "q" && k > 0:
		return []Action{{Kind: trace.KindSend, To: "p", Tag: "pong"}}
	}
	return nil
}

func (pingPong) AfterStep(p trace.ProcID, state string, _ Action) string {
	k, _ := strconv.Atoi(state)
	if p == "p" {
		return strconv.Itoa(k + 1)
	}
	return strconv.Itoa(k - 1)
}

func (pingPong) Deliver(p trace.ProcID, state string, _ trace.ProcID, tag string) (string, bool) {
	if p == "q" && tag == "ping" {
		k, _ := strconv.Atoi(state)
		return strconv.Itoa(k + 1), true
	}
	return state, p == "p" && tag == "pong"
}

// scripted: each process sends its script of actions in order, and
// every process admits every message except those tagged "x…". The
// state is the number of script actions taken.
type scripted struct {
	procs  []trace.ProcID
	script map[trace.ProcID][]Action
}

func (s scripted) Procs() []trace.ProcID { return s.procs }

func (scripted) Init(trace.ProcID) string { return "0" }

func (s scripted) Steps(p trace.ProcID, state string) []Action {
	k, _ := strconv.Atoi(state)
	if k < len(s.script[p]) {
		return s.script[p][k : k+1]
	}
	return nil
}

func (scripted) AfterStep(_ trace.ProcID, state string, _ Action) string {
	k, _ := strconv.Atoi(state)
	return strconv.Itoa(k + 1)
}

func (scripted) Deliver(_ trace.ProcID, state string, _ trace.ProcID, tag string) (string, bool) {
	return state, !strings.HasPrefix(tag, "x")
}

func send(to trace.ProcID, tag string) Action {
	return Action{Kind: trace.KindSend, To: to, Tag: tag}
}

// bursts: a sends m0..m(k-1) to b and to c, interleaved, and b sends
// n0..n(k-1) to c — three channels, each carrying k messages.
func bursts(k int) scripted {
	var a, b []Action
	for i := range k {
		a = append(a, send("b", "m"+strconv.Itoa(i)), send("c", "m"+strconv.Itoa(i)))
		b = append(b, send("c", "n"+strconv.Itoa(i)))
	}
	return scripted{
		procs:  []trace.ProcID{"a", "b", "c"},
		script: map[trace.ProcID][]Action{"a": a, "b": b},
	}
}

// reordered reports whether some channel of c delivered a message
// before one sent earlier on the same channel.
func reordered(c *trace.Computation) bool {
	sent := make(map[trace.MsgID]int)
	last := make(map[[2]trace.ProcID]int)
	for i, e := range c.Events() {
		switch e.Kind {
		case trace.KindSend:
			sent[e.Msg] = i
		case trace.KindReceive:
			ch := [2]trace.ProcID{e.Peer, e.Proc}
			if j, ok := last[ch]; ok && sent[e.Msg] < j {
				return true
			}
			last[ch] = sent[e.Msg]
		}
	}
	return false
}

func TestWalkPingPongQuiesces(t *testing.T) {
	c, err := Walk(pingPong{n: 3}, WalkConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 pings + 3 pongs, each sent and received: 12 events.
	if c.Len() != 12 {
		t.Fatalf("events = %d, want 12", c.Len())
	}
	if got := c.CountKind(trace.Singleton("p"), trace.KindReceive); got != 3 {
		t.Fatalf("pongs received = %d, want 3", got)
	}
	if len(c.InFlight()) != 0 {
		t.Fatalf("messages still in flight at quiescence")
	}
	if _, err := trace.NewComputation(c.Events()); err != nil {
		t.Fatalf("walked computation invalid: %v", err)
	}
}

// TestWalkSameSeedSameRun: equal seeds give SameAs runs, and the seed
// does vary the interleaving.
func TestWalkSameSeedSameRun(t *testing.T) {
	run := func(seed int64) *trace.Computation {
		c, err := Walk(pingPong{n: 4}, WalkConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	distinct := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		c := run(seed)
		if !c.SameAs(run(seed)) {
			t.Fatalf("seed %d: same seed must give the same run", seed)
		}
		distinct[c.Key()] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("the walk never varied the interleaving across seeds")
	}
}

// flood sends forever.
type flood struct{ pingPong }

func (flood) Steps(p trace.ProcID, _ string) []Action {
	if p == "p" {
		return []Action{send("q", "flood")}
	}
	return []Action{send("p", "flood")}
}

func (flood) AfterStep(_ trace.ProcID, state string, _ Action) string { return state }

func (flood) Deliver(_ trace.ProcID, state string, _ trace.ProcID, _ string) (string, bool) {
	return state, true
}

// TestWalkEventBudget: a walk with events still enabled after
// MaxEvents stops there with ErrEventBudget and the run so far; one
// that is quiescent exactly at the budget ends without error, and a
// negative budget stops a walk that never goes quiet before its first
// event.
func TestWalkEventBudget(t *testing.T) {
	c, err := Walk(flood{}, WalkConfig{Seed: 1, MaxEvents: 50})
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if c.Len() != 50 {
		t.Fatalf("events = %d, want 50", c.Len())
	}
	if _, err := Walk(pingPong{n: 3}, WalkConfig{Seed: 1, MaxEvents: 12}); err != nil {
		t.Fatalf("quiescent at the budget: %v", err)
	}
	c, err = Walk(pingPong{n: 3}, WalkConfig{Seed: 1, MaxEvents: 11})
	if !errors.Is(err, ErrEventBudget) || c.Len() != 11 {
		t.Fatalf("one event short: %d events, err = %v", c.Len(), err)
	}
	c, err = Walk(flood{}, WalkConfig{Seed: 1, MaxEvents: -2})
	if !errors.Is(err, ErrEventBudget) || c.Len() != 0 {
		t.Fatalf("negative budget: %d events, err = %v", c.Len(), err)
	}
}

// TestWalkNonFIFOReordersSomewhere: channels are not FIFO, so some seed
// delivers a message before one sent earlier on the same channel.
func TestWalkNonFIFOReordersSomewhere(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c, err := Walk(bursts(4), WalkConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if reordered(c) {
			return
		}
	}
	t.Fatalf("arbitrary-order delivery never reordered across 20 seeds")
}

// TestWalkInflightMatchesComputation: the walk delivers exactly the
// admissible messages, so at quiescence the computation's in-flight
// messages are the inadmissible ones.
func TestWalkInflightMatchesComputation(t *testing.T) {
	s := scripted{
		procs: []trace.ProcID{"a", "b"},
		script: map[trace.ProcID][]Action{
			"a": {send("b", "ok"), send("b", "x1"), send("b", "ok")},
			"b": {send("a", "x2")},
		},
	}
	for seed := int64(0); seed < 10; seed++ {
		c, err := Walk(s, WalkConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var tags []string
		for _, e := range c.InFlight() {
			tags = append(tags, e.Tag)
		}
		slices.Sort(tags)
		if want := []string{"x1", "x2"}; !slices.Equal(tags, want) {
			t.Fatalf("seed %d: in flight %v, want %v", seed, tags, want)
		}
	}
}

// TestWalkInvalidActionFailsAsEngine: a self-send, a send to a process
// outside the protocol and an action of another kind fail the walk
// with the error enumeration reports.
func TestWalkInvalidActionFailsAsEngine(t *testing.T) {
	for _, a := range []Action{
		send("a", "oops"),
		send("zz", "oops"),
		{Kind: trace.KindReceive, Tag: "oops"},
	} {
		s := scripted{procs: []trace.ProcID{"a", "b"}, script: map[trace.ProcID][]Action{"a": {a}}}
		_, werr := Walk(s, WalkConfig{Seed: 1})
		_, eerr := EnumerateWith(s)
		if werr == nil || eerr == nil || werr.Error() != eerr.Error() {
			t.Fatalf("action %+v: walk error %v, enumeration error %v", a, werr, eerr)
		}
	}
}
