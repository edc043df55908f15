package universe

import (
	"errors"
	"math/rand"

	"hpl/internal/trace"
)

// WalkConfig parameterizes Walk.
type WalkConfig struct {
	// Seed drives the choice among enabled events; equal seeds give
	// equal runs.
	Seed int64
	// MaxEvents bounds the run length; 0 means DefaultWalkEvents, and
	// a negative bound stops the walk before its first event.
	MaxEvents int
}

// DefaultWalkEvents bounds walks whose WalkConfig leaves MaxEvents zero.
const DefaultWalkEvents = 10000

// ErrEventBudget reports a walk stopped by MaxEvents rather than
// quiescence.
var ErrEventBudget = errors.New("universe: event budget exhausted before quiescence")

// walkProc is one process during a walk: its local state and its
// enabled actions, recomputed when stale.
type walkProc struct {
	state string
	acts  []Action
	stale bool
}

// walkMsg is a message in flight during a walk.
type walkMsg struct {
	msg      trace.MsgID
	from, to int32
	tag      string
}

// walkStep is one candidate successor: a spontaneous action of
// procs[pi] (msg < 0), or the delivery of inflight[msg].
type walkStep struct {
	pi  int32
	act Action
	msg int
}

// Walk samples one computation of p: starting from the null
// computation, it extends the run by one event at a time, chosen
// uniformly at random among the successors the enumeration engine
// takes — every process's enabled actions, collapsed and checked as
// the engine does (see enabledActions), and every in-flight message
// whose Deliver is admissible. So at any event bound that covers the
// run, the walked computation and each of its prefixes are members of
// the universe EnumerateWith builds from p.
//
// The candidates are listed in the order p.Procs lists the processes,
// then in send order, and drawn from that list. Deliver is asked only
// about a drawn message; one it refuses is set aside for this event and
// another is drawn, so every admissible successor is equally likely,
// and Deliver runs about once per event rather than once per message in
// flight.
//
// The walk stops at quiescence, when no event is enabled, and returns
// the computation. When MaxEvents events have happened and some event
// is still enabled, it returns the computation so far with
// ErrEventBudget. An invalid action fails the walk as it fails
// enumeration.
func Walk(p Protocol, cfg WalkConfig) (*trace.Computation, error) {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = DefaultWalkEvents
	}
	procs := p.Procs()
	procIdx := make(map[trace.ProcID]int32, len(procs))
	ps := make([]walkProc, len(procs))
	for i, id := range procs {
		procIdx[id] = int32(i)
		ps[i] = walkProc{state: p.Init(id), stale: true}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := trace.NewBuilder()
	var inflight []walkMsg
	var cands []walkStep
	for events := 0; ; events++ {
		cands = cands[:0]
		for i, id := range procs {
			q := &ps[i]
			if q.stale {
				a, err := enabledActions(p, procIdx, id, q.state)
				if err != nil {
					return nil, err
				}
				q.acts, q.stale = a, false
			}
			for _, a := range q.acts {
				cands = append(cands, walkStep{pi: int32(i), act: a, msg: -1})
			}
		}
		for k := range inflight {
			cands = append(cands, walkStep{msg: k})
		}
		var c walkStep
		var next string // the addressee's state after a drawn delivery
		for {
			if len(cands) == 0 {
				return b.MustSnapshot(), nil
			}
			j := rng.Intn(len(cands))
			c = cands[j]
			if c.msg < 0 {
				break
			}
			m := inflight[c.msg]
			var ok bool
			if next, ok = p.Deliver(procs[m.to], ps[m.to].state, procs[m.from], m.tag); ok {
				break
			}
			cands[j] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
		}
		if events >= cfg.MaxEvents {
			return b.MustSnapshot(), ErrEventBudget
		}
		if c.msg >= 0 {
			m := inflight[c.msg]
			b.ReceiveMsg(m.msg)
			inflight = append(inflight[:c.msg], inflight[c.msg+1:]...)
			ps[m.to] = walkProc{state: next, stale: true}
			continue
		}
		id, q := procs[c.pi], &ps[c.pi]
		if c.act.Kind == trace.KindSend {
			msg, _ := b.SendMsg(id, c.act.To, c.act.Tag)
			inflight = append(inflight, walkMsg{msg: msg, from: c.pi, to: procIdx[c.act.To], tag: c.act.Tag})
		} else {
			b.Internal(id, c.act.Tag)
		}
		*q = walkProc{state: p.AfterStep(id, q.state, c.act), stale: true}
	}
}
