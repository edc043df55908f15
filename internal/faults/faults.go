// Package faults layers adversarial channel and process behaviour over
// any universe.Protocol. A Model names the faults the adversary may
// inject — crash-stop processes, message drops, duplicate deliveries —
// and Wrap(p, model) returns a protocol whose enumeration explores every
// fault schedule within the model's budgets alongside every fault-free
// schedule, through the unchanged enumeration engine.
//
// Faults appear in the computations as ordinary events with reserved
// tags, so they are first-class observable facts the knowledge layer can
// condition on (see the Crashed/Dropped/Duplicated atoms in
// internal/knowledge):
//
//   - a crash is an internal event tagged TagCrash on the crashing
//     process; afterwards the process takes no steps and delivers
//     nothing (crash-stop). Its messages already in flight remain
//     deliverable — the channel outlives the sender.
//   - a drop is an internal event tagged "fault:drop:<t>" on the sender,
//     replacing an enabled send of tag <t>: the sender's inner state
//     advances exactly as if the send happened, but no message enters
//     the channel. (Attributing the loss to the sender's locality is a
//     conservative over-approximation — the sender learns the loss
//     happened, which only *strengthens* the negative knowledge results
//     checked under these models.)
//   - a duplicate is a re-send of the sender's most recent message with
//     the marked tag "fault:dup:<t>"; the receiver observes the receive
//     event but its inner state is untouched, so duplication never
//     corrupts inner state machines that count messages.
//
// The reliable model is the identity: Wrap(p, Reliable()) is a pure
// passthrough whose universe is byte-identical to p's own.
//
// Wrapping reserves the "fault:" tag namespace and the characters "|",
// ";" and ">" in local-state encodings: inner protocols must not emit
// tags starting with "fault:", and tags and process names must not
// contain "|".
package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Reserved event tags.
const (
	// TagCrash tags the internal event of a process crashing.
	TagCrash = "fault:crash"
	// DropPrefix prefixes the original tag on a drop event.
	DropPrefix = "fault:drop:"
	// DupPrefix prefixes the original tag on a duplicate send/receive.
	DupPrefix = "fault:dup:"
)

// DropTag returns the tag of the internal event recording that a send
// of tag was dropped.
func DropTag(tag string) string { return DropPrefix + tag }

// DupTag returns the tag carried by a duplicate retransmission of a
// message originally tagged tag.
func DupTag(tag string) string { return DupPrefix + tag }

// Model is a composable fault model: which processes may crash, and the
// per-process budgets for dropped and duplicated messages. The zero
// Model is the reliable system.
type Model struct {
	// CrashAll lets every process crash-stop.
	CrashAll bool
	// Crash lists specific processes that may crash-stop; ignored when
	// CrashAll is set.
	Crash []trace.ProcID
	// Drops is the number of sends the channel may drop per process.
	Drops int
	// Dups is the number of deliveries the channel may duplicate per
	// process (as sender).
	Dups int
}

// Reliable is the identity model: no faults.
func Reliable() Model { return Model{} }

// Canonical returns the model in normal form: crash processes sorted
// and deduplicated (cleared entirely under CrashAll), negative budgets
// clamped to zero.
func (m Model) Canonical() Model {
	out := m
	if out.CrashAll {
		out.Crash = nil
	} else {
		procs := make([]trace.ProcID, 0, len(m.Crash))
		procs = append(procs, m.Crash...)
		slices.Sort(procs)
		out.Crash = slices.Compact(procs)
		if len(out.Crash) == 0 {
			out.Crash = nil
		}
	}
	if out.Drops < 0 {
		out.Drops = 0
	}
	if out.Dups < 0 {
		out.Dups = 0
	}
	return out
}

// IsReliable reports whether the canonical model injects no faults.
func (m Model) IsReliable() bool {
	c := m.Canonical()
	return !c.CrashAll && len(c.Crash) == 0 && c.Drops == 0 && c.Dups == 0
}

// CanCrash reports whether the model lets p crash.
func (m Model) CanCrash(p trace.ProcID) bool {
	if m.CrashAll {
		return true
	}
	return slices.Contains(m.Crash, p)
}

// Uniform reports whether the model treats all processes identically —
// the condition under which wrapping preserves the inner protocol's
// declared process symmetry.
func (m Model) Uniform() bool { return m.CrashAll || len(m.Canonical().Crash) == 0 }

// String renders the canonical model in the grammar Parse accepts:
// "none" for the reliable model, otherwise a comma-separated list drawn
// from "crash" (all processes), "crash:<proc>", "drop:<n>", "dup:<n>".
func (m Model) String() string {
	c := m.Canonical()
	var parts []string
	if c.CrashAll {
		parts = append(parts, "crash")
	} else {
		for _, p := range c.Crash {
			parts = append(parts, "crash:"+string(p))
		}
	}
	if c.Drops > 0 {
		parts = append(parts, "drop:"+strconv.Itoa(c.Drops))
	}
	if c.Dups > 0 {
		parts = append(parts, "dup:"+strconv.Itoa(c.Dups))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Parse reads a model from the textual grammar used by UniverseSpec's
// faults field: "" or "none" is reliable; otherwise comma-separated
// tokens "crash" (every process may crash), "crash:<proc>" (that
// process may crash), "drop:<n>" and "dup:<n>" (per-process budgets).
func Parse(s string) (Model, error) {
	var m Model
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return m, nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "crash":
			m.CrashAll = true
		case strings.HasPrefix(tok, "crash:"):
			p := strings.TrimSpace(strings.TrimPrefix(tok, "crash:"))
			if p == "" {
				return Model{}, fmt.Errorf("faults: empty process in %q", tok)
			}
			m.Crash = append(m.Crash, trace.ProcID(p))
		case strings.HasPrefix(tok, "drop:"):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "drop:"))
			if err != nil || n < 0 {
				return Model{}, fmt.Errorf("faults: bad drop budget %q", tok)
			}
			m.Drops = n
		case strings.HasPrefix(tok, "dup:"):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "dup:"))
			if err != nil || n < 0 {
				return Model{}, fmt.Errorf("faults: bad dup budget %q", tok)
			}
			m.Dups = n
		default:
			return Model{}, fmt.Errorf("faults: unknown fault %q (want \"crash\", \"crash:<proc>\", \"drop:<n>\", \"dup:<n>\" or \"none\")", tok)
		}
	}
	return m.Canonical(), nil
}

// Wrap returns a protocol that behaves like p under the fault model m:
// alongside every step of p it enables the model's crash, drop and
// duplicate actions, within budgets, per process. The reliable model is
// a pure passthrough — the wrapped universe is byte-identical to p's.
func Wrap(p universe.Protocol, m Model) universe.Protocol {
	c := m.Canonical()
	return &wrapped{inner: p, m: c, pass: c.IsReliable()}
}

// Unwrap returns the protocol p wraps, or nil when p is not a fault
// wrapper.
func Unwrap(p universe.Protocol) universe.Protocol {
	if w, ok := p.(*wrapped); ok {
		return w.inner
	}
	return nil
}

type wrapped struct {
	inner universe.Protocol
	m     Model
	// pass short-circuits every method to the inner protocol (reliable
	// model), keeping even the local-state strings identical.
	pass bool
}

var _ universe.Protocol = (*wrapped)(nil)
var _ universe.SymmetricProtocol = (*wrapped)(nil)

// fstate is the per-process fault bookkeeping carried in front of the
// inner local state.
type fstate struct {
	crashed     bool
	drops, dups int
	lastTo      trace.ProcID
	lastTag     string
	hasLast     bool
}

// encode renders "<X|-><drops>;<dups>;<lastTo>><lastTag>|<inner>". The
// lastSend fields are recorded only while the duplicate budget is live,
// so exhausted budgets do not multiply states.
func encode(fs fstate, inner string) string {
	var b strings.Builder
	b.Grow(len(inner) + 10)
	if fs.crashed {
		b.WriteByte('X')
	} else {
		b.WriteByte('-')
	}
	b.WriteString(strconv.Itoa(fs.drops))
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(fs.dups))
	b.WriteByte(';')
	if fs.hasLast {
		b.WriteString(string(fs.lastTo))
		b.WriteByte('>')
		b.WriteString(fs.lastTag)
	}
	b.WriteByte('|')
	b.WriteString(inner)
	return b.String()
}

func decodeState(state string) (fstate, string) {
	head, inner, ok := strings.Cut(state, "|")
	if !ok || head == "" {
		// Never produced by encode; fail loudly rather than mis-enumerate.
		panic(fmt.Sprintf("faults: malformed wrapped state %q", state))
	}
	var fs fstate
	fs.crashed = head[0] == 'X'
	fields := strings.SplitN(head[1:], ";", 3)
	fs.drops, _ = strconv.Atoi(fields[0])
	fs.dups, _ = strconv.Atoi(fields[1])
	if fields[2] != "" {
		to, tag, _ := strings.Cut(fields[2], ">")
		fs.lastTo, fs.lastTag, fs.hasLast = trace.ProcID(to), tag, true
	}
	return fs, inner
}

func (w *wrapped) Procs() []trace.ProcID { return w.inner.Procs() }

func (w *wrapped) Init(p trace.ProcID) string {
	if w.pass {
		return w.inner.Init(p)
	}
	return encode(fstate{}, w.inner.Init(p))
}

func (w *wrapped) Steps(p trace.ProcID, state string) []universe.Action {
	if w.pass {
		return w.inner.Steps(p, state)
	}
	fs, is := decodeState(state)
	if fs.crashed {
		return nil
	}
	inner := w.inner.Steps(p, is)
	out := slices.Clone(inner)
	if w.m.CanCrash(p) {
		out = append(out, universe.Action{Kind: trace.KindInternal, Tag: TagCrash})
	}
	if fs.drops < w.m.Drops {
		// Every enabled send may instead be dropped: an internal event on
		// the sender, with the original destination riding along in To
		// (the engine ignores To on internal actions; AfterStep uses it
		// to replay the inner send). Drops of one tag to different
		// destinations are therefore a single event, and the engine
		// merges them into the first, provided the inner protocol's
		// state after the send does not depend on its destination.
		for _, a := range inner {
			if a.Kind == trace.KindSend {
				out = append(out, universe.Action{Kind: trace.KindInternal, To: a.To, Tag: DropTag(a.Tag)})
			}
		}
	}
	if fs.dups < w.m.Dups && fs.hasLast {
		out = append(out, universe.Action{Kind: trace.KindSend, To: fs.lastTo, Tag: DupTag(fs.lastTag)})
	}
	return out
}

func (w *wrapped) AfterStep(p trace.ProcID, state string, a universe.Action) string {
	if w.pass {
		return w.inner.AfterStep(p, state, a)
	}
	fs, is := decodeState(state)
	switch {
	case a.Kind == trace.KindInternal && a.Tag == TagCrash:
		fs.crashed = true
	case a.Kind == trace.KindInternal && strings.HasPrefix(a.Tag, DropPrefix):
		fs.drops++
		is = w.inner.AfterStep(p, is, universe.Action{
			Kind: trace.KindSend, To: a.To, Tag: strings.TrimPrefix(a.Tag, DropPrefix),
		})
	case a.Kind == trace.KindSend && strings.HasPrefix(a.Tag, DupPrefix):
		fs.dups++
	default:
		is = w.inner.AfterStep(p, is, a)
		if a.Kind == trace.KindSend && fs.dups < w.m.Dups {
			fs.lastTo, fs.lastTag, fs.hasLast = a.To, a.Tag, true
		}
	}
	return encode(fs, is)
}

func (w *wrapped) Deliver(p trace.ProcID, state string, from trace.ProcID, tag string) (string, bool) {
	if w.pass {
		return w.inner.Deliver(p, state, from, tag)
	}
	fs, is := decodeState(state)
	if fs.crashed {
		// Crash-stop: a crashed process delivers nothing; messages
		// addressed to it stay in flight forever.
		return state, false
	}
	if strings.HasPrefix(tag, DupPrefix) {
		// Duplicate deliveries are absorbed: the receive event is
		// observable, the inner state machine never sees the copy.
		return state, true
	}
	ns, ok := w.inner.Deliver(p, is, from, tag)
	if !ok {
		return state, false
	}
	return encode(fs, ns), true
}

// Symmetry preserves the inner protocol's declared process-interchange
// group when the model is process-uniform; naming specific crash
// processes breaks interchangeability, so such wraps declare none.
func (w *wrapped) Symmetry() *universe.Symmetry {
	if !w.m.Uniform() {
		return nil
	}
	return universe.InferSymmetry(w.inner)
}
