package obs

import (
	"reflect"
	"strings"
	"testing"
)

func testNames() Names {
	return Names{
		States:   []string{"Idle", "Busy", "Done"},
		Messages: []string{"REQ", "RESP", "TIMEOUT"},
	}
}

func TestCoverageDispatchAndTransitions(t *testing.T) {
	c := NewCoverage()
	// Two paired activations on the same (node, block) and one on another.
	c.Emit(Event{Kind: KindHandlerEnter, Node: 0, Block: 0, State: 0, Msg: 0})
	c.Emit(Event{Kind: KindHandlerExit, Node: 0, Block: 0, State: 1, Msg: 0})
	c.Emit(Event{Kind: KindHandlerEnter, Node: 1, Block: 0, State: 1, Msg: 1})
	c.Emit(Event{Kind: KindHandlerExit, Node: 1, Block: 0, State: 2, Msg: 1})
	c.Emit(Event{Kind: KindHandlerEnter, Node: 0, Block: 0, State: 0, Msg: 0})
	c.Emit(Event{Kind: KindHandlerExit, Node: 0, Block: 0, State: 1, Msg: 0})

	if got := c.DispatchPairs(); got != 2 {
		t.Errorf("DispatchPairs = %d, want 2", got)
	}
	if got := c.DispatchCount(0, 0); got != 2 {
		t.Errorf("DispatchCount(0,0) = %d, want 2", got)
	}
	if got := c.TransitionEdges(); got != 2 {
		t.Errorf("TransitionEdges = %d, want 2", got)
	}
	r := c.Report(testNames())
	if got := r.Dispatch["Idle.REQ"]; got != 2 {
		t.Errorf("Dispatch[Idle.REQ] = %d, want 2", got)
	}
	if got := r.Transitions["Idle.REQ->Busy"]; got != 2 {
		t.Errorf("Transitions[Idle.REQ->Busy] = %d, want 2", got)
	}
	if got := r.Transitions["Busy.RESP->Done"]; got != 1 {
		t.Errorf("Transitions[Busy.RESP->Done] = %d, want 1", got)
	}
	if r.Deferred != nil || r.Faults != nil {
		t.Errorf("empty deferred/faults should be omitted, got %v / %v", r.Deferred, r.Faults)
	}
}

// TestCoverageExitWithoutEnter: an exit with no pending enter on that
// (node, block) must not invent a transition.
func TestCoverageExitWithoutEnter(t *testing.T) {
	c := NewCoverage()
	c.Emit(Event{Kind: KindHandlerExit, Node: 0, Block: 0, State: 1, Msg: 0})
	if got := c.TransitionEdges(); got != 0 {
		t.Errorf("TransitionEdges = %d, want 0", got)
	}
}

func TestCoverageFaultsAndDeferred(t *testing.T) {
	c := NewCoverage()
	c.Emit(Event{Kind: KindDrop, Node: 0, Msg: 1})
	c.Emit(Event{Kind: KindDup, Node: 0, Msg: 1})
	c.Emit(Event{Kind: KindDelay, Node: 0, Msg: 2})
	c.Emit(Event{Kind: KindEnqueue, Node: 0, State: 1, Msg: 0})
	c.FaultSite(FaultActionReorder, 1)
	r := c.Report(testNames())
	want := map[string]uint64{
		"drop:RESP": 1, "dup:RESP": 1, "delay:TIMEOUT": 1,
		"reorder:RESP": 1,
	}
	if !reflect.DeepEqual(r.Faults, want) {
		t.Errorf("Faults = %v, want %v", r.Faults, want)
	}
	if got := r.Deferred["Busy.REQ"]; got != 1 {
		t.Errorf("Deferred[Busy.REQ] = %d, want 1", got)
	}
}

// TestCoverageMergeCommutes: merging per-worker instances in either order
// yields the same totals — the property the parallel checker's layer
// barrier relies on.
func TestCoverageMergeCommutes(t *testing.T) {
	mk := func(msgs ...int32) *Coverage {
		c := NewCoverage()
		for _, m := range msgs {
			c.Emit(Event{Kind: KindHandlerEnter, Node: 0, Block: 0, State: 0, Msg: m})
			c.Emit(Event{Kind: KindHandlerExit, Node: 0, Block: 0, State: 1, Msg: m})
			c.Emit(Event{Kind: KindDrop, Msg: m})
		}
		return c
	}
	ab := NewCoverage()
	ab.Merge(mk(0, 1))
	ab.Merge(mk(1, 2))
	ba := NewCoverage()
	ba.Merge(mk(1, 2))
	ba.Merge(mk(0, 1))
	ra, rb := ab.Report(testNames()), ba.Report(testNames())
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("merge order changed the report:\n%v\nvs\n%v", ra, rb)
	}
	if got := ab.DispatchCount(0, 1); got != 2 {
		t.Errorf("merged DispatchCount(0,1) = %d, want 2", got)
	}
	ab.Merge(nil) // must be a no-op
	if got := ab.DispatchPairs(); got != 3 {
		t.Errorf("DispatchPairs after nil merge = %d, want 3", got)
	}
}

func TestCoverageKeysSorted(t *testing.T) {
	got := Keys(map[string]uint64{"b": 1, "a": 2, "c": 3})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v, want sorted", got)
	}
}

func TestFlightRecorderTail(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Emit(Event{Kind: KindSend, Node: int32(i), Block: 0, State: -1, Msg: 1, Peer: 1, Site: -1})
	}
	lines := fr.TailLines(0, testNames())
	if len(lines) != 4 {
		t.Fatalf("tail has %d lines, want 4 (the ring cap)", len(lines))
	}
	// Oldest retained first; the last line is the newest event.
	if !strings.Contains(lines[3], "node9") {
		t.Errorf("last tail line %q should be the newest event (node9)", lines[3])
	}
	if !strings.Contains(lines[0], "node6") {
		t.Errorf("first tail line %q should be the oldest retained (node6)", lines[0])
	}
	if got := fr.TailLines(2, testNames()); len(got) != 2 {
		t.Errorf("TailLines(2) returned %d lines", len(got))
	}
	// Counters still span the whole run.
	if fr.Total() != 10 {
		t.Errorf("Total = %d, want 10", fr.Total())
	}
	if got := fr.KindCounts(); got["Send"] != 10 || len(got) != 1 {
		t.Errorf("KindCounts = %v, want {Send: 10}", got)
	}
}

func TestFormatEvent(t *testing.T) {
	ev := Event{Kind: KindHandlerEnter, Node: 1, Block: 2, State: 0, Msg: 1,
		Peer: 0, Site: -1, Seq: 7, Time: 42}
	got := FormatEvent(ev, testNames())
	want := "#7 @42 HandlerEnter node1 blk2 state=Idle msg=RESP peer=node0"
	if got != want {
		t.Errorf("FormatEvent = %q, want %q", got, want)
	}
	// Negative sentinel fields stay silent; flow renders in hex.
	ev2 := Event{Kind: KindDrop, Node: 0, Block: 0, State: -1, Msg: 2,
		Peer: 1, Site: -1, Flow: 0x100000002, Seq: 1, Time: 1}
	got2 := FormatEvent(ev2, testNames())
	if strings.Contains(got2, "state=") || !strings.Contains(got2, "flow=100000002") {
		t.Errorf("FormatEvent = %q: want no state, hex flow", got2)
	}
}
