// Verification: the paper's §7 story — model checking finds a deadlock in
// a Stache variant that mishandles the upgrade/invalidate race, producing
// the event trace that explains it; the fixed protocol then verifies
// clean, including on a reordering network. Before exploring any state
// space, the static analyses (teapot vet) already name the offending
// state and message.
//
//	go run ./examples/verification
//
// (The paper: "It even uncovered an unsuspected protocol bug in a heavily
// used implementation of the Stache protocol, which could occur under a
// particular interleaving of messages in the network.")
package main

import (
	"fmt"
	"log"

	"teapot/internal/analysis"
	"teapot/internal/core"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

func main() {
	fmt.Println("== 1. The buggy protocol ==")
	fmt.Println("A node waiting for an upgrade merely queues the home's")
	fmt.Println("invalidation instead of acknowledging it.")
	buggy, err := protocols.Spec("stache-buggy", 2, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nStatic analysis (teapot vet) flags it without exploring")
	fmt.Println("a single machine state:")
	fmt.Println()
	for _, d := range core.Vet(buggy.Proto) {
		fmt.Println("  " + analysis.Format(d))
	}

	fmt.Println("\nThe model checker confirms the hazard with a concrete")
	fmt.Println("interleaving. Exploring...")
	res, err := core.Check(buggy)
	if err != nil {
		log.Fatal(err)
	}
	if res.Violation == nil {
		log.Fatal("expected a violation")
	}
	fmt.Printf("\nfound after %d states (%s):\n%s\n", res.States, res.Elapsed, res.Violation)

	fmt.Println("== 2. The fixed protocol ==")
	fixed, err := protocols.Spec("stache", 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	if ds := core.Vet(fixed.Proto); len(ds) == 0 {
		fmt.Println("teapot vet: no findings.")
	} else {
		for _, d := range ds {
			fmt.Println(analysis.Format(d))
		}
	}
	for _, reorder := range []int{0, 1} {
		fixed.Net = netmodel.Model{Reorder: reorder}
		res, err := core.Check(fixed)
		if err != nil {
			log.Fatal(err)
		}
		status := "verified"
		if res.Violation != nil {
			status = "VIOLATION:\n" + res.Violation.String()
		}
		fmt.Printf("reorder=%d: %d states, %d transitions in %s — %s\n",
			reorder, res.States, res.Transitions, res.Elapsed, status)
	}
	fmt.Println("\nThe same compiled protocol object runs in the simulator and")
	fmt.Println("is explored by the checker — the paper's single-source claim.")
}
