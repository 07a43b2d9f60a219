// LCM-phases: run the same phase-structured stencil workload under the
// general-purpose Stache protocol and under LCM, the paper's custom
// protocol for copy-in/copy-out parallel loops — showing why one would
// bother writing a custom protocol at all (§1: "Custom protocols have been
// used to achieve message-passing performance").
//
//	go run ./examples/lcm-phases
package main

import (
	"fmt"
	"log"

	"teapot/internal/core"
	"teapot/internal/protocols"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func main() {
	const nodes = 16
	const iters = 4

	// An unstructured sweep with a small, heavily shared cell set: the
	// access pattern that makes invalidation protocols thrash (every
	// write invalidates and recalls) and that LCM was designed for.
	runWith := func(proto string) *tempest.Stats {
		w := sim.Unstruct(sim.WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 1, Scale: 8})
		spec, err := protocols.Spec(proto, nodes, w.Blocks)
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		spec.Program = w.Trace
		stats, err := core.Simulate(spec)
		if err != nil {
			log.Fatalf("%s: %v", proto, err)
		}
		return stats
	}
	stacheStats := runWith("stache")
	lcmStats := runWith("lcm")

	fmt.Printf("unstructured sweep on %d nodes, %d phases, 8 shared cells:\n\n", nodes, iters)
	fmt.Printf("%-22s %14s %10s %10s %12s\n", "protocol", "cycles", "faults", "messages", "fault time")
	show := func(name string, s *tempest.Stats) {
		fmt.Printf("%-22s %14d %10d %10d %11.0f%%\n", name, s.Cycles, s.Faults, s.Messages,
			100*float64(s.FaultTime)/float64(s.Cycles*int64(nodes)))
	}
	show("Stache (invalidation)", stacheStats)
	show("LCM (phase copies)", lcmStats)

	fmt.Printf("\nLCM avoids the per-write invalidation storms: %.1f%% fewer faults,\n",
		100*float64(stacheStats.Faults-lcmStats.Faults)/float64(stacheStats.Faults))
	if lcmStats.Cycles < stacheStats.Cycles {
		fmt.Printf("and runs the phase workload %.1f%% faster.\n",
			100*float64(stacheStats.Cycles-lcmStats.Cycles)/float64(stacheStats.Cycles))
	} else {
		fmt.Printf("at %.1f%% the execution time of Stache on this configuration.\n",
			100*float64(lcmStats.Cycles)/float64(stacheStats.Cycles))
	}
}
