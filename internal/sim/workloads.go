package sim

import (
	"teapot/internal/netmodel"
	"teapot/internal/tempest"
)

// The four Table-1 workloads. Each reproduces the *sharing pattern* of the
// paper's benchmark (gauss, appbt, shallow, mp3d); the numerics are
// replaced by Compute operations. Blocks are homed round-robin (block b at
// node b % nodes), matching the runner's default.

// WorkloadSpec sizes a workload.
type WorkloadSpec struct {
	Nodes int
	Iters int
	Scale int // workload-specific size knob
	Seed  uint64
}

// Workload couples a trace with the block count it addresses.
type Workload struct {
	Name   string
	Blocks int
	Trace  *Trace
}

func compute(c int64) tempest.Op { return tempest.Op{Kind: tempest.OpCompute, Cycles: c} }
func read(b int) tempest.Op      { return tempest.Op{Kind: tempest.OpRead, Addr: b} }
func write(b int) tempest.Op     { return tempest.Op{Kind: tempest.OpWrite, Addr: b} }

// Gauss models Gaussian elimination: in iteration k the pivot row's owner
// updates it, then every node reads the pivot row (broadcast,
// producer-consumer sharing) and updates its own rows. This is the pattern
// §1 cites as expensive for invalidation protocols.
func Gauss(spec WorkloadSpec) *Workload {
	rows := spec.Scale // one block per matrix row
	if rows == 0 {
		rows = 4 * spec.Nodes
	}
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		for k := 0; k < rows-1 && k < spec.Iters*spec.Nodes; k++ {
			owner := k % spec.Nodes
			// The pivot owner normalizes the pivot row; the iteration barrier
			// (present in the real program's data dependences) separates the
			// production of the pivot row from its broadcast consumption.
			b.add(owner, read(k), compute(200), write(k), write(k))
			for n := 0; n < spec.Nodes; n++ {
				b.add(n, barrier())
				// Everyone reads the pivot row and updates its own rows below k.
				b.add(n, read(k), compute(60))
				for r := k + 1; r < rows; r++ {
					if r%spec.Nodes == n {
						b.add(n, read(r), compute(40), write(r))
					}
				}
				b.add(n, barrier())
			}
		}
	})
	return &Workload{Name: "gauss", Blocks: rows, Trace: trace}
}

// Appbt models the NAS BT kernel: a 3-D block decomposition where each
// iteration writes the node's own sub-blocks and reads face blocks from
// six neighbors (nearest-neighbor sharing).
func Appbt(spec WorkloadSpec) *Workload {
	per := spec.Scale // blocks per node
	if per < 5 {
		per = 6
	}
	blocks := per * spec.Nodes
	neighbor := func(n, d int) int { return ((n+d)%spec.Nodes + spec.Nodes) % spec.Nodes }
	trace := buildTrace(spec.Nodes, func(tb *traceBuilder) {
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				// Read one face block from each of six 3-D neighbors.
				for _, d := range [...]int{1, -1, 2, -2, 4, -4} {
					nb := neighbor(n, d)
					face := nb*per + (it+d+per)%per
					if face < 0 {
						face += blocks
					}
					tb.add(n, read(face%blocks), compute(80))
				}
				// Update own blocks.
				for b := 0; b < per; b++ {
					blk := n*per + b
					tb.add(n, read(blk), compute(150), write(blk))
				}
			}
		}
	})
	w := &Workload{Name: "appbt", Blocks: blocks, Trace: trace}
	return remapBlocks(w, spec.Nodes, per)
}

// Shallow models the shallow-water stencil: each node owns a band of rows
// and per iteration reads the adjacent boundary rows of its north and
// south neighbors, then rewrites its own band.
func Shallow(spec WorkloadSpec) *Workload {
	band := spec.Scale // rows per node
	if band == 0 {
		band = 8
	}
	blocks := band * spec.Nodes
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				north := ((n-1+spec.Nodes)%spec.Nodes)*band + band - 1
				south := ((n + 1) % spec.Nodes) * band
				b.add(n, read(north), read(south), compute(120))
				for r := 0; r < band; r++ {
					row := n*band + r
					b.add(n, read(row), compute(50), write(row))
				}
			}
		}
	})
	w := &Workload{Name: "shallow", Blocks: blocks, Trace: trace}
	return remapBlocks(w, spec.Nodes, band)
}

// Mp3d models the MP3D particle code: migratory read-modify-write of
// pseudo-randomly chosen space cells, the pattern that stresses ownership
// migration (and the protocol's Excl-to-Excl transitions).
func Mp3d(spec WorkloadSpec) *Workload {
	cells := spec.Scale
	if cells == 0 {
		cells = 3 * spec.Nodes
	}
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		r := netmodel.Rand(spec.Seed | 1)
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				for p := 0; p < 8; p++ {
					cell := r.Intn(cells)
					b.add(n, read(cell), compute(30), write(cell), compute(90))
				}
			}
		}
	})
	return &Workload{Name: "mp3d", Blocks: cells, Trace: trace}
}

// remapBlocks renumbers "node n owns blocks [n*per, n*per+per)" into the
// runner's round-robin homing (block b homed at b % nodes) so a node's own
// blocks really are homed at it.
func remapBlocks(w *Workload, nodes, per int) *Workload {
	// block n*per+b  ->  b*nodes + n
	for _, ops := range w.Trace.Ops {
		for i := range ops {
			op := &ops[i]
			if op.Kind == tempest.OpRead || op.Kind == tempest.OpWrite || op.Kind == tempest.OpEvict {
				n := op.Addr / per
				b := op.Addr % per
				op.Addr = b*nodes + n
			}
		}
	}
	return w
}

// Table1Workloads builds the four Stache benchmarks at the given machine
// size.
func Table1Workloads(nodes, iters int) []*Workload {
	return []*Workload{
		Gauss(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 11}),
		Appbt(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 22}),
		Shallow(WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 33}),
		Mp3d(WorkloadSpec{Nodes: nodes, Iters: iters * 4, Seed: 44}),
	}
}

// ProdCons is the §1 producer-consumer pattern in its pure form: one
// producer repeatedly updates a block that a set of consumers re-reads
// every round. Under an invalidation protocol each round costs the
// producer an invalidation/ack pair per consumer plus a re-request/response
// pair per consumer ("up to four protocol messages for a small data
// transfer"); under a write-update protocol it costs one UPDATE per
// consumer.
func ProdCons(spec WorkloadSpec) *Workload {
	trace := buildTrace(spec.Nodes, func(b *traceBuilder) {
		for it := 0; it < spec.Iters; it++ {
			for n := 0; n < spec.Nodes; n++ {
				b.add(n, barrier())
				if n == 0 {
					b.add(n, compute(50), write(0))
				}
				b.add(n, barrier())
				if n != 0 {
					b.add(n, read(0), compute(30))
				}
			}
		}
	})
	return &Workload{Name: "prodcons", Blocks: 1, Trace: trace}
}
