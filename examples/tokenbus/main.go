// Token bus: the paper's §4.1 example. A token moves along the bus
// p — q — r; exhaustive enumeration verifies that whenever r holds the
// token, r knows that q knows the token is not at p.
//
// Run with: go run ./examples/tokenbus
package main

import (
	"fmt"

	"hpl"
	"hpl/internal/protocols/tokenbus"
)

func main() {
	bus := tokenbus.MustNew("p", "q", "r")
	ck, err := hpl.CheckProtocol(bus, hpl.WithMaxEvents(8), hpl.WithParallelism(4))
	if err != nil {
		panic(err)
	}
	fmt.Printf("token bus p—q—r: %d computations enumerated\n", ck.Universe().Len())

	atP := hpl.NewAtom(bus.TokenAt("p"))
	atR := hpl.NewAtom(bus.TokenAt("r"))
	claim := hpl.Implies(atR,
		hpl.Knows(hpl.Singleton("r"),
			hpl.Knows(hpl.Singleton("q"), hpl.Not(atP))))

	fmt.Printf("claim: token@r ⇒ r knows q knows ¬token@p\n")
	fmt.Printf("valid over the whole universe: %v\n", ck.Valid(claim))

	// Show the knowledge states along one concrete run:
	// p passes to q, q passes to r.
	run := hpl.NewBuilder().
		Send("p", "q", tokenbus.TokenTag).
		Receive("q", "p").
		Send("q", "r", tokenbus.TokenTag).
		Receive("r", "q").
		MustBuild()
	qKnows := hpl.Knows(hpl.Singleton("q"), hpl.Not(atP))
	rKnowsQKnows := hpl.Knows(hpl.Singleton("r"), qKnows)
	fmt.Println("\nalong the run p→q→r:")
	for n := 0; n <= run.Len(); n++ {
		x := run.Prefix(n)
		fmt.Printf("  after %d events: q knows ¬token@p = %-5v  r knows q knows = %v\n",
			n, ck.MustHolds(qKnows, x), ck.MustHolds(rKnowsQKnows, x))
	}

	// A random walk of the same protocol, 30 hops long, conserves the
	// token.
	comp, err := bus.Simulate(7, 30)
	if err != nil {
		panic(err)
	}
	holders := 0
	for _, p := range bus.Procs() {
		if bus.TokenAt(p).Holds(comp) {
			holders++
		}
	}
	fmt.Printf("\nwalked 30 hops (%d events); token holders at end: %d, in flight: %d\n",
		comp.Len(), holders, len(comp.InFlight()))
}
