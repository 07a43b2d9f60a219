// Package sim assembles benchmark runs: a workload program, a protocol
// engine (compiled Teapot or hand-written baseline), and the Tempest
// machine, and reports the statistics Tables 1 and 2 are built from.
package sim

import (
	"fmt"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/tempest"
)

// Config describes one run.
type Config struct {
	Nodes  int
	Blocks int
	Cost   tempest.CostModel
	Tags   tempest.EventTags
	// MakeEngine builds the protocol engine against the machine (which
	// implements runtime.Machine).
	MakeEngine func(m runtime.Machine) tempest.Engine
	Program    tempest.Program
	HomeOf     func(id int) int
	// Obs, when non-nil, is attached to the engine (if it implements
	// obs.Attacher) for the duration of the run. Sinks that implement
	// obs.ClockSetter are driven by the machine's virtual clock.
	Obs obs.Sink

	// Net injects network faults stochastically from a RNG seeded with
	// Seed; the same (Config, Seed) always reproduces the same run. Message
	// corruption is a checker-only fault (the simulator has no per-message
	// NACK bounce path), so Net.MaxCorrupts must be 0 here.
	Net  netmodel.Model
	Seed uint64

	// Sched, when set, replaces the seeded stochastic injection with
	// explicit schedule control: every nondeterministic decision (fault
	// fate, bounded reordering, same-cycle ties) is delegated to the
	// chooser. internal/fuzz records and replays these as Schedules.
	Sched tempest.Chooser

	// ObsMemory turns on the tempest data-version model so the run emits
	// the memory events internal/oracle judges.
	ObsMemory bool

	// InitMem gives blocks initial values under ObsMemory (litmus
	// workloads; see tempest.Config.InitMem).
	InitMem []int64

	// MaxEvents caps the run's event budget (0 = tempest's default). The
	// fuzzer sets a small budget so a livelocked schedule returns an error
	// instead of spinning toward the 100M-event safety net.
	MaxEvents int64
}

// Validate refuses a fault model the simulator cannot inject. Run calls it
// first; a caller that must tell a refused configuration from a failed run
// calls it before Run.
func (cfg Config) Validate() error {
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.Net.MaxCorrupts > 0 {
		return fmt.Errorf("sim: Net corrupt=%d is checker-only (the simulator injects drop/dup/delay)", cfg.Net.MaxCorrupts)
	}
	return nil
}

// Run executes the workload to completion.
func Run(cfg Config) (*tempest.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prog := cfg.Program
	if t, ok := prog.(*Trace); ok {
		// Replay through a private cursor so a shared Workload trace is
		// never consumed by one run and left mid-stream for the next.
		prog = t.NewCursor()
	}
	tc := tempest.Config{
		Nodes:   cfg.Nodes,
		Blocks:  cfg.Blocks,
		HomeOf:  cfg.HomeOf,
		Cost:    cfg.Cost,
		Tags:    cfg.Tags,
		Program: prog,
		Net:     cfg.Net,
		Seed:    cfg.Seed,

		Sched:     cfg.Sched,
		ObsMemory: cfg.ObsMemory,
		InitMem:   cfg.InitMem,
		MaxEvents: cfg.MaxEvents,
	}
	m := tempest.New(tc)
	eng := cfg.MakeEngine(m)
	m.SetEngine(eng)
	if cfg.Obs != nil {
		if cs, ok := cfg.Obs.(obs.ClockSetter); ok {
			cs.SetClock(m.Now)
		}
		m.SetObs(cfg.Obs)
		defer m.SetObs(nil)
		if a, ok := eng.(obs.Attacher); ok {
			a.SetObs(cfg.Obs)
			defer a.SetObs(nil)
		}
	}
	return m.Run()
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

// Reset rewinds the trace so another engine can replay it.
func (t *Trace) Reset() {
	for i := range t.pos {
		t.pos[i] = 0
	}
}

// TotalOps returns the total operation count.
func (t *Trace) TotalOps() int {
	n := 0
	for _, ops := range t.Ops {
		n += len(ops)
	}
	return n
}
