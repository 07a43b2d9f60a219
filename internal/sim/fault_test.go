package sim_test

import (
	"reflect"
	"testing"

	"teapot/internal/core"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func runStacheFT(t *testing.T, w *sim.Workload, nodes int, net netmodel.Model, seed uint64) *tempest.Stats {
	t.Helper()
	spec, err := protocols.Spec("stache-ft", nodes, w.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	spec.Program, spec.Net, spec.Seed = w.Trace, net, seed
	stats, err := core.Simulate(spec)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return stats
}

// TestSimFaultInjectionDeterministic: the same (Config, Seed) must
// reproduce the identical run — every statistic, including the injected
// fault counts — and a different seed must still complete.
func TestSimFaultInjectionDeterministic(t *testing.T) {
	const nodes = 4
	net := netmodel.Model{MaxDrops: 8, MaxDups: 8, Delay: 2}
	w := sim.Table1Workloads(nodes, 2)[0]
	a := runStacheFT(t, w, nodes, net, 42)
	b := runStacheFT(t, w, nodes, net, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	if a.Drops+a.Dups+a.Delays == 0 {
		t.Errorf("no faults injected: %+v", a)
	}
	if a.Drops > 0 && a.Timeouts == 0 {
		t.Errorf("%d drops but no timeout recovery fired: %+v", a.Drops, a)
	}
	if a.Cycles <= 0 || a.Faults == 0 {
		t.Errorf("run did not do real work: %+v", a)
	}
	c := runStacheFT(t, w, nodes, net, 7)
	if c.Cycles <= 0 {
		t.Errorf("seed 7 run did not complete: %+v", c)
	}
}

// TestSimCleanNetUnchanged: a zero NetModel must not perturb a run — the
// injector is nil and no fault or timeout machinery engages.
func TestSimCleanNetUnchanged(t *testing.T) {
	const nodes = 4
	w := sim.Table1Workloads(nodes, 2)[0]
	a := runStacheFT(t, w, nodes, netmodel.Model{}, 1)
	if a.Drops+a.Dups+a.Delays+a.Timeouts != 0 {
		t.Errorf("faults on a clean network: %+v", a)
	}
	b := runStacheFT(t, w, nodes, netmodel.Model{}, 99)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed changed a clean-network run:\n%+v\n%+v", a, b)
	}
}

// TestSimCorruptRejected: corruption is a checker-only fault.
func TestSimCorruptRejected(t *testing.T) {
	w := sim.Table1Workloads(2, 1)[0]
	proto := protocols.MustCompile("stache", true).Protocol
	_, err := sim.Run(sim.Config{
		Nodes:  2,
		Blocks: w.Blocks,
		Cost:   tempest.DefaultCost,
		Tags:   tempest.ResolveTags(proto),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(proto, 2, w.Blocks, m, stache.MustSupport(proto))
		},
		Program: w.Trace,
		Net:     netmodel.Model{MaxCorrupts: 1},
	})
	if err == nil {
		t.Fatal("corrupt budget accepted by the simulator")
	}
}
