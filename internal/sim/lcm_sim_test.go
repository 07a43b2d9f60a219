package sim_test

import (
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/lcm"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func runLCM(t *testing.T, w *sim.Workload, nodes int, v lcm.Variant, optimize bool) *tempest.Stats {
	t.Helper()
	p := protocols.MustCompile(v.String(), optimize).Protocol
	stats, err := sim.Run(sim.Config{
		Nodes:  nodes,
		Blocks: w.Blocks,
		Cost:   tempest.DefaultCost,
		Tags:   tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, nodes, w.Blocks, m, lcm.MustSupport(p, nodes))
		},
		Program: w.Trace,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, v, err)
	}
	return stats
}

func TestLCMWorkloads(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table2Workloads(nodes, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := runLCM(t, w, nodes, lcm.Base, true)
			t.Logf("%s: cycles=%d faults=%d msgs=%d", w.Name, s.Cycles, s.Faults, s.Messages)
		})
	}
}

func TestLCMVariantsRun(t *testing.T) {
	const nodes = 4
	for _, v := range []lcm.Variant{lcm.Base, lcm.Update, lcm.MCC, lcm.Both} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			w := sim.Stencil(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 9})
			s := runLCM(t, w, nodes, v, true)
			t.Logf("%s: cycles=%d msgs=%d", v, s.Cycles, s.Messages)
		})
	}
}

func runLCMHW(t *testing.T, w *sim.Workload, nodes int, cost tempest.CostModel) *tempest.Stats {
	t.Helper()
	p := protocols.MustCompile("lcm", true).Protocol
	stats, err := sim.Run(sim.Config{
		Nodes:  nodes,
		Blocks: w.Blocks,
		Cost:   cost,
		Tags:   tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return lcm.NewHW(p, nodes, w.Blocks, m)
		},
		Program: w.Trace,
	})
	if err != nil {
		t.Fatalf("%s/hw: %v", w.Name, err)
	}
	return stats
}

func runLCMCost(t *testing.T, w *sim.Workload, nodes int, v lcm.Variant, optimize bool, cost tempest.CostModel) *tempest.Stats {
	t.Helper()
	p := protocols.MustCompile(v.String(), optimize).Protocol
	stats, err := sim.Run(sim.Config{
		Nodes:  nodes,
		Blocks: w.Blocks,
		Cost:   cost,
		Tags:   tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, nodes, w.Blocks, m, lcm.MustSupport(p, nodes))
		},
		Program: w.Trace,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, v, err)
	}
	return stats
}

var zeroCost = tempest.CostModel{MemAccess: 1, NetLatency: 120}

// TestLCMHandwrittenEquivalence: the hand-written LCM replays identical
// traces with identical wire behavior under a protocol-cost-free model.
func TestLCMHandwrittenEquivalence(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table2Workloads(nodes, 2) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			hw := runLCMHW(t, w, nodes, zeroCost)
			tp := runLCMCost(t, w, nodes, lcm.Base, true, zeroCost)
			if hw.Faults != tp.Faults {
				t.Errorf("faults differ: hw=%d teapot=%d", hw.Faults, tp.Faults)
			}
			if hw.Messages != tp.Messages {
				t.Errorf("messages differ: hw=%d teapot=%d", hw.Messages, tp.Messages)
			}
		})
	}
}

// TestLCMOverheadOrdering checks the Table 2 shape.
func TestLCMOverheadOrdering(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table2Workloads(nodes, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			hw := runLCMHW(t, w, nodes, tempest.DefaultCost)
			opt := runLCMCost(t, w, nodes, lcm.Base, true, tempest.DefaultCost)
			unopt := runLCMCost(t, w, nodes, lcm.Base, false, tempest.DefaultCost)
			if hw.Cycles > opt.Cycles {
				t.Errorf("hand-written (%d) slower than optimized (%d)", hw.Cycles, opt.Cycles)
			}
			if opt.Cycles > unopt.Cycles {
				t.Errorf("optimized (%d) slower than unoptimized (%d)", opt.Cycles, unopt.Cycles)
			}
			t.Logf("%s: C=%d opt=%d (+%.1f%%) unopt=%d (+%.1f%%)", w.Name,
				hw.Cycles,
				opt.Cycles, 100*float64(opt.Cycles-hw.Cycles)/float64(hw.Cycles),
				unopt.Cycles, 100*float64(unopt.Cycles-hw.Cycles)/float64(hw.Cycles))
		})
	}
}
