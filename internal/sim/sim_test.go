package sim_test

import (
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func runStache(t *testing.T, w *sim.Workload, nodes int, flavor string) *tempest.Stats {
	return runStacheCost(t, w, nodes, flavor, tempest.DefaultCost)
}

// zeroProtoCost makes protocol processing free so engine timing is
// identical regardless of implementation — used for wire-equivalence.
var zeroProtoCost = tempest.CostModel{MemAccess: 1, NetLatency: 120}

func runStacheCost(t *testing.T, w *sim.Workload, nodes int, flavor string, cost tempest.CostModel) *tempest.Stats {
	t.Helper()
	var mk func(m runtime.Machine) tempest.Engine
	proto := protocols.MustCompile("stache", true).Protocol
	switch flavor {
	case "hw":
		mk = func(m runtime.Machine) tempest.Engine {
			return stache.NewHW(proto, nodes, w.Blocks, m)
		}
	case "unopt":
		p := protocols.MustCompile("stache", false).Protocol
		mk = func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, nodes, w.Blocks, m, stache.MustSupport(p))
		}
	case "opt":
		mk = func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(proto, nodes, w.Blocks, m, stache.MustSupport(proto))
		}
	default:
		t.Fatalf("unknown flavor %s", flavor)
	}
	stats, err := sim.Run(sim.Config{
		Nodes:      nodes,
		Blocks:     w.Blocks,
		Cost:       cost,
		Tags:       tempest.ResolveTags(proto),
		MakeEngine: mk,
		Program:    w.Trace,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name, flavor, err)
	}
	return stats
}

func TestWorkloadsComplete(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table1Workloads(nodes, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			stats := runStache(t, w, nodes, "opt")
			if stats.Cycles <= 0 {
				t.Fatalf("cycles = %d", stats.Cycles)
			}
			if stats.Faults == 0 || stats.Messages == 0 {
				t.Errorf("no protocol activity: faults=%d messages=%d", stats.Faults, stats.Messages)
			}
			t.Logf("%s: cycles=%d faults=%d msgs=%d faultTime=%.0f%%",
				w.Name, stats.Cycles, stats.Faults, stats.Messages,
				100*float64(stats.FaultTime)/float64(stats.Cycles*int64(nodes)))
		})
	}
}

// TestHandwrittenEquivalence replays identical traces through the
// hand-written baseline and the compiled Teapot protocol under a cost
// model where protocol processing is free (so both experience identical
// timing); both must generate the same faults and messages (wire-level
// equivalence).
func TestHandwrittenEquivalence(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table1Workloads(nodes, 2) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			hw := runStacheCost(t, w, nodes, "hw", zeroProtoCost)
			tp := runStacheCost(t, w, nodes, "opt", zeroProtoCost)
			if hw.Faults != tp.Faults {
				t.Errorf("faults differ: hw=%d teapot=%d", hw.Faults, tp.Faults)
			}
			if hw.Messages != tp.Messages {
				t.Errorf("messages differ: hw=%d teapot=%d", hw.Messages, tp.Messages)
			}
			if hw.Accesses != tp.Accesses {
				t.Errorf("accesses differ: hw=%d teapot=%d", hw.Accesses, tp.Accesses)
			}
		})
	}
}

// TestOverheadOrdering checks the Table 1 shape: hand-written ≤ optimized ≤
// unoptimized, with overheads within a plausible band.
func TestOverheadOrdering(t *testing.T) {
	const nodes = 8
	for _, w := range sim.Table1Workloads(nodes, 3) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			hw := runStache(t, w, nodes, "hw")
			opt := runStache(t, w, nodes, "opt")
			unopt := runStache(t, w, nodes, "unopt")
			if hw.Cycles > opt.Cycles {
				t.Errorf("hand-written (%d) slower than optimized Teapot (%d)", hw.Cycles, opt.Cycles)
			}
			if opt.Cycles > unopt.Cycles {
				t.Errorf("optimized (%d) slower than unoptimized (%d)", opt.Cycles, unopt.Cycles)
			}
			ovOpt := 100 * float64(opt.Cycles-hw.Cycles) / float64(hw.Cycles)
			ovUnopt := 100 * float64(unopt.Cycles-hw.Cycles) / float64(hw.Cycles)
			if ovUnopt > 40 {
				t.Errorf("unoptimized overhead %.1f%% implausibly high", ovUnopt)
			}
			t.Logf("%s: C=%d opt=%d (+%.1f%%) unopt=%d (+%.1f%%)",
				w.Name, hw.Cycles, opt.Cycles, ovOpt, unopt.Cycles, ovUnopt)
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	const nodes = 4
	w1 := sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 7})
	w2 := sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 7})
	s1 := runStache(t, w1, nodes, "opt")
	s2 := runStache(t, w2, nodes, "opt")
	if s1.Cycles != s2.Cycles || s1.Messages != s2.Messages {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", s1.Cycles, s1.Messages, s2.Cycles, s2.Messages)
	}
}
