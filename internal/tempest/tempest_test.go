package tempest_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// fixedProgram feeds predetermined per-node op slices.
type fixedProgram struct {
	ops [][]tempest.Op
	pos []int
}

func newProgram(ops ...[]tempest.Op) *fixedProgram {
	return &fixedProgram{ops: ops, pos: make([]int, len(ops))}
}

func (p *fixedProgram) Next(node int) (tempest.Op, bool) {
	if p.pos[node] >= len(p.ops[node]) {
		return tempest.Op{}, false
	}
	op := p.ops[node][p.pos[node]]
	p.pos[node]++
	return op, true
}

func stacheMachine(t *testing.T, nodes, blocks int, prog tempest.Program, cost tempest.CostModel) (*tempest.Machine, *tempest.TeapotEngine) {
	t.Helper()
	p := protocols.MustCompile("stache", true).Protocol
	var te *tempest.TeapotEngine
	m := tempest.New(tempest.Config{
		Nodes: nodes, Blocks: blocks,
		Cost: cost, Tags: tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			te = tempest.NewTeapotEngine(p, nodes, blocks, m, stache.MustSupport(p))
			return te
		},
		Program: prog,
	})
	return m, te
}

func compute(c int64) tempest.Op { return tempest.Op{Kind: tempest.OpCompute, Cycles: c} }
func read(b int) tempest.Op      { return tempest.Op{Kind: tempest.OpRead, Addr: b} }
func write(b int) tempest.Op     { return tempest.Op{Kind: tempest.OpWrite, Addr: b} }
func barrierOp() tempest.Op      { return tempest.Op{Kind: tempest.OpBarrier} }

func TestComputeOnlyTiming(t *testing.T) {
	m, _ := stacheMachine(t, 2, 1,
		newProgram(
			[]tempest.Op{compute(100), compute(50)},
			[]tempest.Op{compute(30)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 150 {
		t.Errorf("cycles = %d, want 150 (max node time)", stats.Cycles)
	}
	if stats.NodeCycles[0] != 150 || stats.NodeCycles[1] != 30 {
		t.Errorf("node cycles = %v", stats.NodeCycles)
	}
	if stats.Faults != 0 || stats.Messages != 0 {
		t.Errorf("unexpected protocol activity: %+v", stats)
	}
}

func TestLocalAccessIsCheap(t *testing.T) {
	// Node 0 is home of block 0: its accesses hit without faults.
	m, _ := stacheMachine(t, 2, 1,
		newProgram(
			[]tempest.Op{read(0), write(0), read(0)},
			nil,
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != 0 {
		t.Errorf("faults = %d, want 0", stats.Faults)
	}
	if stats.Accesses != 3 {
		t.Errorf("accesses = %d, want 3", stats.Accesses)
	}
	if stats.Cycles != 3*tempest.DefaultCost.MemAccess {
		t.Errorf("cycles = %d", stats.Cycles)
	}
}

func TestRemoteReadFaultsOnceThenHits(t *testing.T) {
	m, _ := stacheMachine(t, 2, 1,
		newProgram(
			nil,
			[]tempest.Op{read(0), read(0), read(0)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != 1 {
		t.Errorf("faults = %d, want 1 (subsequent reads hit)", stats.Faults)
	}
	if stats.Messages != 2 { // GET_RO_REQ + GET_RO_RESP
		t.Errorf("messages = %d, want 2", stats.Messages)
	}
	// The fault costs at least trap + 2 network hops.
	min := tempest.DefaultCost.FaultTrap + 2*tempest.DefaultCost.NetLatency
	if stats.Cycles < min {
		t.Errorf("cycles = %d, want >= %d", stats.Cycles, min)
	}
	if stats.FaultTime <= 0 {
		t.Errorf("fault time = %d", stats.FaultTime)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m, _ := stacheMachine(t, 3, 1,
		newProgram(
			[]tempest.Op{compute(500), barrierOp(), compute(10)},
			[]tempest.Op{compute(10), barrierOp(), compute(10)},
			[]tempest.Op{barrierOp(), compute(10)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Everyone leaves the barrier at 500 and finishes at 510.
	for n, c := range stats.NodeCycles {
		if c != 510 {
			t.Errorf("node %d = %d cycles, want 510", n, c)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A node that reaches a barrier no one else ever reaches: the run
	// fails (node never finished) rather than hanging.
	m, _ := stacheMachine(t, 2, 1,
		newProgram(
			[]tempest.Op{barrierOp()},
			nil,
		), tempest.DefaultCost)
	if _, err := m.Run(); err == nil {
		t.Fatal("expected an error for the unmatched barrier")
	}
}

func TestWriteInvalidatesAndFaultTimeAccrues(t *testing.T) {
	m, _ := stacheMachine(t, 3, 1,
		newProgram(
			nil,
			[]tempest.Op{read(0), compute(10)},
			[]tempest.Op{compute(1000), write(0), compute(10)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != 2 { // node1 read, node2 write
		t.Errorf("faults = %d, want 2", stats.Faults)
	}
	if stats.Protocol.Handlers == 0 || stats.ProtoTime == 0 {
		t.Errorf("protocol work not recorded: %+v", stats.Protocol)
	}
}

func TestCostModelCycles(t *testing.T) {
	cm := tempest.CostModel{
		Dispatch: 10, PerInstr: 2, HeapCont: 50, StaticCont: 5,
		Resume: 20, ConstResume: 3, QueueRecord: 30, SendOverhead: 7,
		SupportCall: 4,
	}
	d := tempest.CostCounters{
		Handlers: 2, Instrs: 10, HeapConts: 1, StaticConts: 2,
		Resumes: 1, ConstResumes: 3, QueueRecords: 1, Sends: 4, Calls: 5,
	}
	want := int64(2*10 + 10*2 + 1*50 + 2*5 + 1*20 + 3*3 + 1*30 + 4*7 + 5*4)
	if got := cm.Cycles(d); got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
	// Add sums every field, and the model is linear in them.
	if got := cm.Cycles(d.Add(d)); got != 2*want {
		t.Errorf("Cycles(d+d) = %d, want %d", got, 2*want)
	}
}

func TestResolveTags(t *testing.T) {
	p := protocols.MustCompile("stache", true).Protocol
	tags := tempest.ResolveTags(p)
	if tags.ReadFault < 0 || tags.WriteFault < 0 || tags.WriteRO < 0 || tags.Evict < 0 {
		t.Errorf("stache tags = %+v", tags)
	}
	if tags.Sync >= 0 || tags.BeginPhase >= 0 {
		t.Errorf("stache should not resolve SYNC/phase tags: %+v", tags)
	}
}

func TestEvictOpOnlyFiresOnRemoteReadOnly(t *testing.T) {
	evict := func(b int) tempest.Op { return tempest.Op{Kind: tempest.OpEvict, Addr: b} }
	m, te := stacheMachine(t, 2, 1,
		newProgram(
			[]tempest.Op{evict(0)}, // home: must be a no-op
			[]tempest.Op{read(0), evict(0)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The remote eviction generates the handshake (EVICT_RO_REQ/ACK) on
	// top of the fill pair.
	if stats.Messages != 4 {
		t.Errorf("messages = %d, want 4", stats.Messages)
	}
	if got := te.Engines[1].Blocks[0].StateName(te.Engines[1].Proto); got != "Cache_Inv" {
		t.Errorf("node1 block state = %s, want Cache_Inv", got)
	}
}

// TestZeroCostModelStillRuns guards the wire-equivalence configuration.
func TestZeroCostModelStillRuns(t *testing.T) {
	w := sim.Gauss(sim.WorkloadSpec{Nodes: 4, Iters: 1, Seed: 5})
	p := protocols.MustCompile("stache", true).Protocol
	stats, err := sim.Run(sim.Config{
		Nodes: 4, Blocks: w.Blocks,
		Cost: tempest.CostModel{MemAccess: 1, NetLatency: 1},
		Tags: tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, 4, w.Blocks, m, stache.MustSupport(p))
		},
		Program: w.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProtoTime != 0 {
		t.Errorf("zero-cost model charged %d protocol cycles", stats.ProtoTime)
	}
}

// TestResetReruns: stats a caller holds survive a Reset and a second Run
// unchanged (Run returns a copy, not the machine's own counters), and a
// reset machine reruns a program to the stats of its first run, over the
// compiled engine and over either hand-written one.
func TestResetReruns(t *testing.T) {
	w := sim.Gauss(sim.WorkloadSpec{Nodes: 4, Iters: 1, Seed: 5})
	m, _ := stacheMachine(t, 4, w.Blocks, w.Trace.NewCursor(), tempest.DefaultCost)
	first, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	held := *first
	held.NodeCycles = slices.Clone(first.NodeCycles)

	// A different run in between: one remote read.
	ops := make([][]tempest.Op, 4)
	ops[1] = []tempest.Op{read(0)}
	m.Reset(newProgram(ops...), 1, nil)
	other, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if other.Faults != 1 || other.Accesses != 1 {
		t.Errorf("the reset machine's one-read run: %d faults, %d accesses; want 1, 1", other.Faults, other.Accesses)
	}
	if !reflect.DeepEqual(*first, held) {
		t.Errorf("held stats changed across Reset and Run:\n  was %+v\n  now %+v", held, *first)
	}

	m.Reset(w.Trace.NewCursor(), 0, nil)
	again, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("rerun after Reset differs from the first run:\n  first %+v\n  rerun %+v", *first, *again)
	}

	// The hand-written engines rerun alike: Stache under Gauss, and LCM
	// under a Table 2 workload, whose phases reach the rows LCM adds.
	const nodes = 4
	for _, tc := range []struct {
		proto string
		w     *sim.Workload
	}{
		{"stache", sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: 1, Seed: 5})},
		{"lcm", sim.Table2Workloads(nodes, 2)[0]},
	} {
		t.Run("hand-written "+tc.proto, func(t *testing.T) {
			entry, _ := protocols.Lookup(tc.proto)
			p := protocols.MustCompile(tc.proto, true).Protocol
			m := tempest.New(tempest.Config{
				Nodes: nodes, Blocks: tc.w.Blocks, Cost: tempest.DefaultCost, Tags: tempest.ResolveTags(p),
				MakeEngine: func(m runtime.Machine) tempest.Engine { return entry.HandWritten(p, nodes, tc.w.Blocks, m) },
				Program:    tc.w.Trace.NewCursor(),
			})
			first, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			ops := make([][]tempest.Op, nodes)
			ops[1] = []tempest.Op{write(0), read(1)}
			m.Reset(newProgram(ops...), 1, nil)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			m.Reset(tc.w.Trace.NewCursor(), 0, nil)
			again, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, first) {
				t.Errorf("rerun after Reset differs from the first run:\n  first %+v\n  rerun %+v", *first, *again)
			}
		})
	}
}

var _ = sema.AccReadOnly // keep sema imported for future assertions

// dropFirst drops the first message it may and takes the benign option
// everywhere else, logging every choice it is asked for.
type dropFirst struct {
	asked   []tempest.ChoiceKind
	dropped bool
}

func (c *dropFirst) Choose(k tempest.ChoiceKind, n int) int {
	c.asked = append(c.asked, k)
	if k == tempest.ChooseFault && !c.dropped {
		c.dropped = true
		return 1 // the first fault option: drop
	}
	return 0
}

// TestResetAfterStoppedRun: a run that stops mid-way — out of events, with
// a block's timer armed and a message in flight on a channel that may
// reorder — leaves nothing behind for the next run on the machine. In the
// next run the same two reads need the timer to recover the dropped
// request and send on that channel again; it must run exactly as on a new
// machine, asked the same choices.
func TestResetAfterStoppedRun(t *testing.T) {
	spec, err := protocols.Spec("stache-ft", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tempest.Config{
		Nodes: 3, Blocks: 1, Cost: tempest.DefaultCost, Tags: tempest.ResolveTags(spec.Proto),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(spec.Proto, 3, 1, m, spec.Support)
		},
		Net:       netmodel.Model{MaxDrops: 1, Reorder: 1},
		MaxEvents: 12,
	}
	yields := make([]tempest.Op, 20)
	for i := range yields {
		yields[i] = tempest.Op{Kind: tempest.OpYield, Cycles: 1}
	}
	// Node 1's request is dropped and its timer armed; node 2's is in flight
	// while node 0 yields the event budget away.
	stopped := newProgram(yields, []tempest.Op{read(0)}, []tempest.Op{read(0)})
	reads := func() *fixedProgram { return newProgram(nil, []tempest.Op{read(0)}, []tempest.Op{read(0)}) }

	m := tempest.New(cfg)
	m.Reset(stopped, 0, &dropFirst{})
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("the first run was to stop out of events, got err = %v", err)
	}
	var got, want dropFirst
	m.Reset(reads(), 0, &got)
	reused, err := m.Run()
	if err != nil {
		t.Fatalf("run after a stopped run: %v", err)
	}
	fresh := cfg
	fresh.Program, fresh.Sched = reads(), &want
	wantStats, err := tempest.New(fresh).Run()
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Timeouts == 0 || wantStats.Drops != 1 {
		t.Fatalf("fixture: %d timeouts, %d drops; want the timer to recover a drop", wantStats.Timeouts, wantStats.Drops)
	}
	if !reflect.DeepEqual(reused, wantStats) || !reflect.DeepEqual(got.asked, want.asked) {
		t.Errorf("after a stopped run the machine ran\n  %+v, asked %v\nnot, as a new one,\n  %+v, asked %v",
			*reused, got.asked, *wantStats, want.asked)
	}
}
