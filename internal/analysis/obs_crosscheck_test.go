package analysis_test

import (
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// TestObsAgreesWithContAllocAnalysis is dynamic evidence for the static
// continuation pass: every continuation-allocation event a real Stache run
// emits must match the compiler's per-site decision (ir.SuspendSite.Heap),
// heap allocations must only occur at sites the compiler
// predicted could heap-allocate, and any site the cont-alloc lint flags as
// needlessly heap-allocating must be in that predicted-heap set. On clean
// Stache the lint is expected to stay silent — that too is asserted, so a
// regression in either the optimizer or the lint shows up here.
func TestObsAgreesWithContAllocAnalysis(t *testing.T) {
	art := protocols.MustCompile("stache", true)
	p := art.Protocol

	staticSite := map[int]bool{}
	for _, s := range p.IR.Sites {
		staticSite[s.ID] = !s.Heap
	}

	// Drive enough traffic to hit suspends on multiple sites: a workload
	// with read and write faults from every node.
	const nodes = 8
	w := sim.Mp3d(sim.WorkloadSpec{Nodes: nodes, Iters: 8, Seed: 5})
	col := obs.NewCollector(0)
	_, err := sim.Run(sim.Config{
		Nodes: nodes, Blocks: w.Blocks,
		Cost: tempest.DefaultCost, Tags: tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, nodes, w.Blocks, m, stache.MustSupport(p))
		},
		Program: w.Trace,
		Obs:     col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Count(obs.KindContAlloc) == 0 {
		t.Fatal("workload produced no continuation allocations; cross-check is vacuous")
	}
	// mp3d's migratory sharing drives Home_RS/Home_Excl through their
	// saving suspends on several distinct paths; a shrunken site set means
	// the workload (or the optimizer) changed out from under this test.
	if got := len(col.HeapContSites()); got < 3 {
		t.Errorf("only %d distinct heap-allocating sites observed, want >= 3 for a meaningful cross-check", got)
	}

	// 1. Every observed allocation agrees with the static classification.
	for _, site := range col.HeapContSites() {
		static, ok := staticSite[site]
		if !ok {
			t.Errorf("heap continuation observed at site %d the compiler does not know", site)
			continue
		}
		if static {
			t.Errorf("site %d heap-allocated at run time but is classified Static", site)
		}
	}
	for _, site := range col.StaticContSites() {
		static, ok := staticSite[site]
		if !ok {
			t.Errorf("static continuation record observed at unknown site %d", site)
			continue
		}
		if !static {
			t.Errorf("site %d produced a static record at run time but is classified heap", site)
		}
	}
	// A site is one or the other, never both.
	for _, site := range col.HeapContSites() {
		if h, s := col.SiteAllocs(site); h > 0 && s > 0 {
			t.Errorf("site %d allocated both heap (%d) and static (%d) records", site, h, s)
		}
	}

	// 2. The lint's findings must be a subset of the predicted-heap sites.
	// Clean optimized Stache saves only live, non-constant state across its
	// suspends, so the lint has nothing to say — pin that.
	if ds := analysis.Analyze(p).ByCheck("cont-alloc"); len(ds) != 0 {
		t.Errorf("cont-alloc lint unexpectedly fired on clean Stache: %v", ds)
	}

	// 3. The static pass actually bought something in this run: at least
	// one site produced static records where the unoptimized compile would
	// have heap-allocated every one.
	if len(col.StaticContSites()) == 0 {
		t.Error("no statically allocated continuation records observed; Table 1's optimization is not visible")
	}
}
