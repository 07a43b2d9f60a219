package sim_test

import (
	"testing"

	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// TestRunDoesNotConsumeSharedTrace is the regression test for the shared
// trace-cursor bug: Workload.Trace carries a mutable position, so a second
// Run over the same Workload used to replay an empty stream and report a
// trivially short (and wrong) run. Run must give each invocation its own
// cursor.
func TestRunDoesNotConsumeSharedTrace(t *testing.T) {
	const nodes = 4
	w := sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 7})
	// The same trace, twice: sim.Run replays it through a private cursor.
	s1 := runStache(t, w, nodes, "opt")
	s2 := runStache(t, w, nodes, "opt")
	if s1.Cycles != s2.Cycles || s1.Messages != s2.Messages || s1.Accesses != s2.Accesses {
		t.Errorf("second run over a shared Workload diverged: (%d,%d,%d) vs (%d,%d,%d)",
			s1.Cycles, s1.Messages, s1.Accesses, s2.Cycles, s2.Messages, s2.Accesses)
	}
	if s2.Accesses == 0 {
		t.Error("second run saw an already-consumed trace")
	}
}

// TestTraceCursorIndependence checks cursors do not share position state
// with each other or with the trace's own cursor.
func TestTraceCursorIndependence(t *testing.T) {
	tr := sim.NewTrace([][]tempest.Op{{
		{Kind: tempest.OpRead, Addr: 0},
		{Kind: tempest.OpWrite, Addr: 0},
	}})
	c1, c2 := tr.NewCursor(), tr.NewCursor()
	op1, ok := c1.Next(0)
	if !ok || op1.Kind != tempest.OpRead {
		t.Fatalf("c1 first op = %+v, %v", op1, ok)
	}
	op2, ok := c2.Next(0)
	if !ok || op2.Kind != tempest.OpRead {
		t.Errorf("c2 saw c1's position: %+v, %v", op2, ok)
	}
	if op, ok := tr.Next(0); !ok || op.Kind != tempest.OpRead {
		t.Errorf("trace's own cursor moved by cursor reads: %+v, %v", op, ok)
	}
}

// TestRunWithObsSink wires a collector through sim.Run and checks the
// plumbing end to end: events arrive, timestamps follow the machine's
// virtual clock, and observation does not change the simulation.
func TestRunWithObsSink(t *testing.T) {
	const nodes = 4
	w := sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 7})
	bare := runStache(t, w, nodes, "opt")

	c := obs.NewCollector(0)
	observed := runStacheObs(t, w, nodes, c)
	if observed.Cycles != bare.Cycles || observed.Messages != bare.Messages {
		t.Errorf("observation changed the run: (%d,%d) vs (%d,%d)",
			observed.Cycles, observed.Messages, bare.Cycles, bare.Messages)
	}
	if c.Total() == 0 {
		t.Fatal("sink saw no events")
	}
	if got := c.Count(obs.KindSend); got != bare.Messages {
		t.Errorf("Send events = %d, machine counted %d messages", got, bare.Messages)
	}
	// A support routine's multicast is a send like any other: on a
	// workload that invalidates sharers (mp3d; gauss never does) every
	// message still has its Send event, and every delivery the flow id
	// that ties it to one.
	mp := sim.Mp3d(sim.WorkloadSpec{Nodes: nodes, Iters: 2, Seed: 7})
	mc := obs.NewCollector(0)
	if st := runStacheObs(t, mp, nodes, mc); mc.Count(obs.KindSend) != st.Messages {
		t.Errorf("mp3d: Send events = %d, machine counted %d messages", mc.Count(obs.KindSend), st.Messages)
	}
	invalidations, invReq := 0, int32(protocols.MustCompile("stache", true).Protocol.MsgIndex("PUT_NO_DATA_REQ"))
	for _, ev := range mc.Events() {
		if ev.Kind == obs.KindDeliver && ev.Peer != ev.Node && ev.Flow == 0 {
			t.Fatalf("mp3d: delivery without a flow id: %+v", ev)
		}
		if ev.Kind == obs.KindSend && ev.Msg == invReq {
			invalidations++
		}
	}
	if invalidations == 0 {
		t.Error("mp3d sent no invalidation: the workload no longer exercises the support-module send")
	}
	var lastTime int64 = -1
	timed := false
	for _, ev := range c.Events() {
		if ev.Time < lastTime {
			t.Fatalf("virtual time went backwards: %d after %d", ev.Time, lastTime)
		}
		lastTime = ev.Time
		if ev.Time > 0 {
			timed = true
		}
	}
	if !timed {
		t.Error("no event carries a nonzero virtual timestamp; clock not wired")
	}
}

func runStacheObs(t *testing.T, w *sim.Workload, nodes int, sink obs.Sink) *tempest.Stats {
	t.Helper()
	proto := protocols.MustCompile("stache", true).Protocol
	stats, err := sim.Run(sim.Config{
		Nodes:  nodes,
		Blocks: w.Blocks,
		Cost:   tempest.DefaultCost,
		Tags:   tempest.ResolveTags(proto),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(proto, nodes, w.Blocks, m, stache.MustSupport(proto))
		},
		Program: w.Trace,
		Obs:     sink,
	})
	if err != nil {
		t.Fatalf("%s/obs: %v", w.Name, err)
	}
	return stats
}

// TestWorkloadTracesExactlySized: every bundled generator stores each
// node's stream at its final size, cut from one array, so making a trace
// allocates the trace and a few headers, never append growth. Mp3d at 32
// nodes, the largest Table 1 trace, pins the count.
func TestWorkloadTracesExactlySized(t *testing.T) {
	spec := sim.WorkloadSpec{Nodes: 8, Iters: 4, Seed: 3}
	for _, w := range []*sim.Workload{
		sim.Gauss(spec), sim.Appbt(spec), sim.Shallow(spec), sim.Mp3d(spec),
		sim.ProdCons(spec), sim.Adaptive(spec), sim.Stencil(spec), sim.Unstruct(spec),
	} {
		for n, ops := range w.Trace.Ops {
			if len(ops) != cap(ops) {
				t.Errorf("%s node %d: %d ops in a stream of capacity %d", w.Name, n, len(ops), cap(ops))
			}
		}
	}
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	allocs := testing.AllocsPerRun(3, func() {
		sim.Mp3d(sim.WorkloadSpec{Nodes: 32, Iters: 256, Seed: 3})
	})
	if allocs > 8 {
		t.Errorf("Mp3d at 32 nodes: %.0f allocations, want at most 8", allocs)
	}
}
