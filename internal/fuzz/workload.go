package fuzz

import (
	"teapot/internal/netmodel"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// WorkloadOpts shapes the random memory-access workload fuzzed runs
// execute. The workload is seeded and deterministic: the same opts always
// produce the same per-node operation streams, so a Schedule (which
// records the seed) reproduces the whole run, not just the network.
type WorkloadOpts struct {
	Nodes      int
	Blocks     int
	OpsPerNode int
	Seed       uint64
	Evict      bool // sprinkle voluntary evictions (invalidation protocols)
	Sync       bool // end each node with a SYNC sweep (buffered-write protocols)
}

// RandomProgram builds a seeded random read/write workload. Every node
// hammers every block (small machines, heavy sharing — the same shape the
// model checker explores), with reads outnumbering writes roughly 2:1.
func RandomProgram(o WorkloadOpts) *sim.Trace {
	ops := make([][]tempest.Op, o.Nodes)
	for n := 0; n < o.Nodes; n++ {
		r := netmodel.Rand(o.Seed*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9 + 1)
		var stream []tempest.Op
		for i := 0; i < o.OpsPerNode; i++ {
			addr := r.Intn(o.Blocks)
			roll := r.Intn(100)
			switch {
			case o.Evict && roll < 8:
				stream = append(stream, tempest.Op{Kind: tempest.OpEvict, Addr: addr})
			case roll < 40:
				stream = append(stream, tempest.Op{Kind: tempest.OpWrite, Addr: addr})
			case roll < 90:
				stream = append(stream, tempest.Op{Kind: tempest.OpRead, Addr: addr})
			default:
				stream = append(stream, tempest.Op{Kind: tempest.OpCompute, Cycles: int64(1 + r.Intn(50))})
			}
		}
		if o.Sync {
			stream = append(stream, tempest.Op{Kind: tempest.OpSync})
		}
		ops[n] = stream
	}
	return sim.NewTrace(ops)
}
