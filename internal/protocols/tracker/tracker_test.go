package tracker

import (
	"strings"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

func TestEnumerationAlternatesFlipAndNotify(t *testing.T) {
	sys, err := New("q", "p", 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.Enumerate(sys.SuggestedMaxEvents(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 {
		t.Fatal("empty universe")
	}
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		flips, notes := 0, 0
		for _, e := range c.Events() {
			if e.Proc != "q" {
				continue
			}
			switch {
			case e.Kind == trace.KindInternal && e.Tag == TagFlip:
				flips++
			case e.Kind == trace.KindSend && strings.HasPrefix(e.Tag, TagNotify):
				notes++
			}
			// Invariant: notes never lead flips; flips lead by at most 1.
			if notes > flips || flips > notes+1 {
				t.Fatalf("member %d violates alternation: flips=%d notes=%d", i, flips, notes)
			}
		}
		if flips > 2 {
			t.Fatalf("member %d exceeds flip budget", i)
		}
	}
}

func TestNotificationCarriesParity(t *testing.T) {
	sys, err := New("q", "p", 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.Enumerate(sys.SuggestedMaxEvents(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		flips := 0
		for _, e := range c.Events() {
			if e.Proc == "q" && e.Kind == trace.KindInternal && e.Tag == TagFlip {
				flips++
			}
			if e.Proc == "q" && e.Kind == trace.KindSend {
				want := TagNotify + ":" + boolStr(flips%2 == 1)
				if e.Tag != want {
					t.Fatalf("member %d: note tag %q, want %q", i, e.Tag, want)
				}
			}
		}
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func TestWalkRoundTrip(t *testing.T) {
	sys, err := New("q", "p", 5)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := universe.Walk(sys, universe.WalkConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, e := range comp.Events() {
		if e.Proc == "p" && e.Kind == trace.KindReceive {
			notes = append(notes, e.Tag)
		}
	}
	if len(notes) != 5 {
		t.Fatalf("tracker saw %d notifications, want 5", len(notes))
	}
	// Flips 1, 3 and 5 leave the bit true, and the walk ends only once
	// every notification is delivered.
	odd := 0
	for _, n := range notes {
		if n == TagNotify+":true" {
			odd++
		}
	}
	if odd != 3 || len(comp.InFlight()) != 0 {
		t.Fatalf("notifications %v, in flight %v", notes, comp.InFlight())
	}
	if got := comp.CountKind(trace.Singleton("q"), trace.KindInternal); got != 5 {
		t.Fatalf("flip events = %d", got)
	}
}
