package core

import (
	"fmt"
	"hash/fnv"

	"teapot/internal/mc"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// RunSpec describes one protocol run, shared by both backends: Check
// explores it exhaustively with the model checker, Simulate executes it on
// the discrete-event machine. It is the checker's configuration — protocol,
// support module, machine shape, network, sink — plus the four things only
// the simulator needs, so there is nothing to keep in step between the two.
// The network fault model is a single value with one meaning everywhere —
// the checker explores its faults nondeterministically within the budgets,
// the simulator injects them stochastically from Seed — so "-net
// drop=1,dup=1" names the same network to every tool.
//
// Of the embedded fields Simulate reads Proto, Support, Nodes, Blocks, Net
// and Obs; Events, Client and Terminal drive the checker only (the
// simulator runs Program, which carries a litmus Client's script as
// tempest ops).
type RunSpec struct {
	mc.Config

	Seed    uint64 // fault-injection RNG seed; see EffectiveSeed
	Program tempest.Program
	// InitMem gives blocks initial values in the simulator's data model
	// (litmus workloads); the checker takes them from Client.InitMem.
	InitMem   []int64
	MaxEvents int64 // event budget for the run (0 = tempest's default)
}

// EffectiveSeed resolves the spec's RNG seed. A nonzero Seed is used
// verbatim; Seed 0 means "derive a stable seed from the run shape"
// (protocol name, machine size, network model), so "-seed 0" names the
// same deterministic run to every tool instead of conflating "unset" with
// the literal seed zero.
func (s RunSpec) EffectiveSeed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	h := fnv.New64a()
	name := ""
	if s.Proto != nil {
		name = s.Proto.Sema().ProtoName
	}
	fmt.Fprintf(h, "%s|%d|%d|%s", name, s.Nodes, s.Blocks, s.Net)
	seed := h.Sum64()
	if seed == 0 {
		seed = 1
	}
	return seed
}

// MCConfig returns the checker's configuration: the embedded value.
func (s RunSpec) MCConfig() mc.Config { return s.Config }

// SimConfig lowers the spec to a simulator configuration, building the
// engine from Proto and Support and resolving the seed. The cost model is
// tempest.DefaultCost; a caller that needs another sets it on the result.
func (s RunSpec) SimConfig() sim.Config {
	return sim.Config{
		Nodes:  s.Nodes,
		Blocks: s.Blocks,
		Cost:   tempest.DefaultCost,
		Tags:   tempest.ResolveTags(s.Proto),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(s.Proto, s.Nodes, s.Blocks, m, s.Support)
		},
		Program:   s.Program,
		Obs:       s.Obs,
		Net:       s.Net,
		Seed:      s.EffectiveSeed(),
		InitMem:   s.InitMem,
		MaxEvents: s.MaxEvents,
	}
}

// Check model-checks the spec.
func Check(spec RunSpec) (*mc.Result, error) {
	return mc.Check(spec.Config)
}

// Simulate executes the spec's workload on the discrete-event machine.
func Simulate(spec RunSpec) (*tempest.Stats, error) {
	return sim.Run(spec.SimConfig())
}
