// Package sim assembles benchmark runs: a workload program, a protocol
// engine (compiled Teapot or hand-written baseline), and the Tempest
// machine, and reports the statistics Tables 1 and 2 are built from.
package sim

import "teapot/internal/tempest"

// Config describes one run: the machine's own configuration, engine
// constructor and workload included.
type Config = tempest.Config

// Run executes the workload to completion.
func Run(cfg Config) (*tempest.Stats, error) {
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if t, ok := cfg.Program.(*Trace); ok {
		// Replay through a private cursor so a shared Workload trace is
		// never consumed by one run and left mid-stream for the next.
		cfg.Program = t.NewCursor()
	}
	return tempest.New(cfg).Run()
}

// Trace is a precomputed per-node operation stream; all bundled workloads
// are Traces so every engine flavor replays the identical instruction
// stream.
type Trace struct {
	Ops [][]tempest.Op
	pos []int
}

// NewTrace wraps per-node op slices.
func NewTrace(ops [][]tempest.Op) *Trace {
	return &Trace{Ops: ops, pos: make([]int, len(ops))}
}

// traceBuilder collects the per-node op streams of a bundled workload. A
// generator runs twice over one builder: the first run counts each node's
// ops, the second stores them into slices cut from one allocation of the
// exact total, so a trace costs its own size and no append growth.
type traceBuilder struct {
	counting bool
	counts   []int
	ops      [][]tempest.Op
}

func (b *traceBuilder) add(n int, ops ...tempest.Op) {
	if b.counting {
		b.counts[n] += len(ops)
		return
	}
	b.ops[n] = append(b.ops[n], ops...)
}

// buildTrace runs gen, which must be deterministic, once to count and once
// to fill.
func buildTrace(nodes int, gen func(b *traceBuilder)) *Trace {
	b := &traceBuilder{counting: true, counts: make([]int, nodes)}
	gen(b)
	total := 0
	for _, c := range b.counts {
		total += c
	}
	flat := make([]tempest.Op, total)
	b.counting, b.ops = false, make([][]tempest.Op, nodes)
	for n, c := range b.counts {
		if c > 0 { // a node with no ops keeps a nil stream
			b.ops[n], flat = flat[:0:c], flat[c:]
		}
	}
	gen(b)
	return NewTrace(b.ops)
}

// Next implements tempest.Program. It advances the trace's own cursor;
// callers that share one Trace across runs should prefer NewCursor.
func (t *Trace) Next(node int) (tempest.Op, bool) {
	if t.pos[node] >= len(t.Ops[node]) {
		return tempest.Op{}, false
	}
	op := t.Ops[node][t.pos[node]]
	t.pos[node]++
	return op, true
}

// NewCursor returns an independent replay cursor over the trace. Cursors
// share the immutable op streams but keep private positions, so
// concurrent or back-to-back runs over one Workload never interfere.
func (t *Trace) NewCursor() *TraceCursor {
	return &TraceCursor{t: t, pos: make([]int, len(t.Ops))}
}

// TraceCursor is a private replay position over a shared Trace.
type TraceCursor struct {
	t   *Trace
	pos []int
}

// Next implements tempest.Program.
func (c *TraceCursor) Next(node int) (tempest.Op, bool) {
	if c.pos[node] >= len(c.t.Ops[node]) {
		return tempest.Op{}, false
	}
	op := c.t.Ops[node][c.pos[node]]
	c.pos[node]++
	return op, true
}
