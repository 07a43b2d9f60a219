package sim_test

import (
	"testing"

	"teapot/internal/core"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// TestCompileModesBehaviorallyEquivalent: the optimizations must never
// change protocol behavior — identical traces produce identical wire
// activity and final cycle counts under a protocol-cost-free model for
// unoptimized, optimized, and no-liveness builds.
func TestCompileModesBehaviorallyEquivalent(t *testing.T) {
	build := func(optimize, noLiveness bool) *runtime.Protocol {
		art, err := core.Compile(core.Config{
			Name: "stache.tea", Source: stache.Source,
			Optimize: optimize, NoLiveness: noLiveness,
			HomeStart: "Home_Idle", CacheStart: "Cache_Inv",
		})
		if err != nil {
			t.Fatal(err)
		}
		return art.Protocol
	}
	modes := map[string]*runtime.Protocol{
		"unopt":      build(false, false),
		"opt":        build(true, false),
		"noliveness": build(false, true),
	}
	cost := tempest.CostModel{MemAccess: 1, NetLatency: 120}
	type result struct {
		cycles, faults, messages int64
	}
	var results = map[string]result{}
	for name, p := range modes {
		for _, w := range sim.Table1Workloads(8, 2) {
			stats, err := sim.Run(sim.Config{
				Nodes: 8, Blocks: w.Blocks, Cost: cost,
				Tags: tempest.ResolveTags(p),
				MakeEngine: func(m runtime.Machine) tempest.Engine {
					return tempest.NewTeapotEngine(p, 8, w.Blocks, m, stache.MustSupport(p))
				},
				Program: w.Trace,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, w.Name, err)
			}
			key := name + "/" + w.Name
			results[key] = result{stats.Cycles, stats.Faults, stats.Messages}
		}
	}
	for _, w := range []string{"gauss", "appbt", "shallow", "mp3d"} {
		base := results["unopt/"+w]
		for _, mode := range []string{"opt", "noliveness"} {
			got := results[mode+"/"+w]
			if got != base {
				t.Errorf("%s/%s = %+v, unopt = %+v (optimization changed behavior!)",
					mode, w, got, base)
			}
		}
	}
}
