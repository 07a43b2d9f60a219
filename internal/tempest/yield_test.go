package tempest_test

import (
	"testing"

	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/tempest"
)

// memSink records the data-version model's completed accesses.
type memSink struct {
	reads  map[int][]int64 // node -> observed packed values, completion order
	writes int
}

func newMemSink() *memSink { return &memSink{reads: map[int][]int64{}} }

func (s *memSink) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindRead:
		s.reads[int(ev.Node)] = append(s.reads[int(ev.Node)], ev.Arg)
	case obs.KindWrite:
		s.writes++
	}
}

// memMachine is stacheMachine with the data-version model on.
func memMachine(t *testing.T, nodes, blocks int, prog tempest.Program, initMem []int64) (*tempest.Machine, *memSink) {
	t.Helper()
	p := protocols.MustCompile("stache", true).Protocol
	sink := newMemSink()
	m := tempest.New(tempest.Config{
		Nodes: nodes, Blocks: blocks,
		Cost: tempest.DefaultCost, Tags: tempest.ResolveTags(p),
		MakeEngine: func(m runtime.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(p, nodes, blocks, m, stache.MustSupport(p))
		},
		Program:   prog,
		Obs:       sink,
		ObsMemory: true,
		InitMem:   initMem,
	})
	return m, sink
}

func yield(c int64) tempest.Op { return tempest.Op{Kind: tempest.OpYield, Cycles: c} }

func TestYieldAdvancesClock(t *testing.T) {
	m, _ := stacheMachine(t, 2, 1,
		newProgram(
			[]tempest.Op{yield(100), yield(50)},
			[]tempest.Op{yield(0), compute(30)},
		), tempest.DefaultCost)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeCycles[0] != 150 || stats.NodeCycles[1] != 30 {
		t.Errorf("node cycles = %v, want [150 30]", stats.NodeCycles)
	}
	if stats.Faults != 0 || stats.Messages != 0 {
		t.Errorf("unexpected protocol activity: %+v", stats)
	}
}

// TestYieldReleasesEventLoop pins the OpCompute/OpYield distinction the
// litmus jitter depends on. Node 0 (home of block 0, valid initial copy)
// delays, then reads; node 1 stores 7 concurrently. A compute delay never
// leaves step()'s tight loop, so the read runs before node 1's write
// traffic no matter how long the delay is and observes the initial value.
// A yield of the same length re-enters the event queue, the store and its
// ownership transfer happen first, and the read faults and observes 7.
func TestYieldReleasesEventLoop(t *testing.T) {
	const long = 100_000 // ≫ a write fault's full round trip
	run := func(prefix tempest.Op) int64 {
		m, sink := memMachine(t, 2, 1,
			newProgram(
				[]tempest.Op{prefix, read(0)},
				[]tempest.Op{{Kind: tempest.OpWrite, Addr: 0, Val: 7}},
			), []int64{5})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		reads := sink.reads[0]
		if len(reads) != 1 {
			t.Fatalf("node 0 completed %d reads, want 1", len(reads))
		}
		return tempest.ValueOf(reads[0])
	}
	if got := run(compute(long)); got != 5 {
		t.Errorf("read after compute(%d) = %d, want 5 (initial value)", long, got)
	}
	if got := run(yield(long)); got != 7 {
		t.Errorf("read after yield(%d) = %d, want 7 (node 1's store)", long, got)
	}
}

func TestCASObservesAndStoresConditionally(t *testing.T) {
	cas := func(expect, val int64) tempest.Op {
		return tempest.Op{Kind: tempest.OpCAS, Addr: 0, Expect: expect, Val: val}
	}
	m, sink := memMachine(t, 1, 1,
		newProgram(
			// Succeeds (observes the initial 5), then fails (observes 9).
			[]tempest.Op{cas(5, 9), cas(5, 11)},
		), []int64{5})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	reads := sink.reads[0]
	if len(reads) != 2 {
		t.Fatalf("completed %d observations, want 2", len(reads))
	}
	if v := tempest.ValueOf(reads[0]); v != 5 {
		t.Errorf("first CAS observed %d, want 5", v)
	}
	if v := tempest.ValueOf(reads[1]); v != 9 {
		t.Errorf("second CAS observed %d, want 9 (first CAS's store)", v)
	}
	if sink.writes != 1 {
		t.Errorf("stores = %d, want 1 (second CAS must not store)", sink.writes)
	}
}
