package sim

import (
	"slices"

	"teapot/internal/netmodel"
	"teapot/internal/tempest"
)

// The three Table-2 workloads (adaptive, stencil, unstruct). All are
// phase-structured: a barrier, phase entry, a burst of reads and writes on
// private LCM copies, phase exit, and another barrier — the copy-in/
// copy-out discipline LCM was built for.

func barrier() tempest.Op { return tempest.Op{Kind: tempest.OpBarrier} }

// beginPhase/endPhase announce phase entry/exit for one block the node
// will touch (Addr -1 would sweep all blocks; the workloads know their
// touch sets, as real LCM programs do).
func beginPhase(b int) tempest.Op { return tempest.Op{Kind: tempest.OpBeginPhase, Addr: b} }
func endPhase(b int) tempest.Op   { return tempest.Op{Kind: tempest.OpEndPhase, Addr: b} }

// Stencil is a regular 2-D relaxation run through LCM phases: every phase
// each node pulls copies of its own band and the adjacent boundary rows,
// updates privately, and reconciles at the end of the phase.
func Stencil(spec WorkloadSpec) *Workload {
	band := spec.Scale
	if band == 0 {
		band = 4
	}
	blocks := band * spec.Nodes
	trace := buildTrace(spec.Nodes, func(tb *traceBuilder) {
		touched := make([]int, 0, band+2)
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				north := ((n-1+spec.Nodes)%spec.Nodes)*band + band - 1
				south := ((n + 1) % spec.Nodes) * band
				touched = append(touched[:0], north, south)
				for r := 0; r < band; r++ {
					touched = append(touched, n*band+r)
				}
				tb.add(n, barrier())
				for _, b := range touched {
					tb.add(n, beginPhase(b))
				}
				tb.add(n, read(north), read(south), compute(100))
				for r := 0; r < band; r++ {
					row := n*band + r
					tb.add(n, read(row), compute(60), write(row))
				}
				for _, b := range touched {
					tb.add(n, endPhase(b))
				}
				tb.add(n, barrier())
			}
		}
	})
	w := &Workload{Name: "stencil", Blocks: blocks, Trace: trace}
	return remapBlocks(w, spec.Nodes, band)
}

// Adaptive models an adaptively refined mesh: the set of blocks a node
// touches drifts between phases, so consumers change and copies migrate.
func Adaptive(spec WorkloadSpec) *Workload {
	cells := spec.Scale
	if cells == 0 {
		cells = 2 * spec.Nodes
	}
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		r := netmodel.Rand(spec.Seed | 1)
		touched := make([]int, 0, 4)
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				// A drifting working set: a base region plus refined cells.
				base := (n + it) % cells
				touched = touched[:0]
				for k := 0; k < 3; k++ {
					touched = append(touched, (base+k)%cells)
				}
				if r.Intn(2) == 0 { // refinement touches an extra random cell
					touched = append(touched, r.Intn(cells))
				}
				touched = dedupe(touched)
				b.add(n, barrier())
				for _, c := range touched {
					b.add(n, beginPhase(c))
				}
				for _, c := range touched {
					b.add(n, read(c), compute(70), write(c))
				}
				for _, c := range touched {
					b.add(n, endPhase(c))
				}
				b.add(n, barrier())
			}
		}
	})
	return &Workload{Name: "adaptive", Blocks: cells, Trace: trace}
}

// Unstruct models an unstructured-mesh sweep: a fixed random graph decides
// which blocks each node reads and updates every phase.
func Unstruct(spec WorkloadSpec) *Workload {
	cells := spec.Scale
	if cells == 0 {
		cells = 3 * spec.Nodes
	}
	r := netmodel.Rand(spec.Seed | 1)
	// Fixed sparse structure: each node touches the same 4 cells each phase.
	touch := make([][]int, spec.Nodes)
	for n := range touch {
		for k := 0; k < 4; k++ {
			touch[n] = append(touch[n], r.Intn(cells))
		}
		touch[n] = dedupe(touch[n])
	}
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				b.add(n, barrier())
				for _, c := range touch[n] {
					b.add(n, beginPhase(c))
				}
				for _, c := range touch[n] {
					b.add(n, read(c), compute(50), write(c), compute(30))
				}
				for _, c := range touch[n] {
					b.add(n, endPhase(c))
				}
				b.add(n, barrier())
			}
		}
	})
	return &Workload{Name: "unstruct", Blocks: cells, Trace: trace}
}

// Table2Workloads builds the three LCM benchmarks.
func Table2Workloads(nodes, iters int) []*Workload {
	return []*Workload{
		Adaptive(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 55}),
		Stencil(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 66}),
		Unstruct(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 77}),
	}
}

// dedupe removes duplicates while preserving order. The sets are a handful
// of cells, so a scan of what is kept beats a map.
func dedupe(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}
