package obs

import "testing"

func TestCollectorCounters(t *testing.T) {
	c := NewCollector(0)
	c.Emit(Event{Kind: KindHandlerEnter, Node: 0, State: 2, Msg: 1, Peer: 1})
	c.Emit(Event{Kind: KindContAlloc, Node: 0, Site: 5, Arg: 1})
	c.Emit(Event{Kind: KindContAlloc, Node: 0, Site: 2, Arg: 0})
	c.Emit(Event{Kind: KindContAlloc, Node: 0, Site: 5, Arg: 1})
	c.Emit(Event{Kind: KindEnqueue, Node: 0, Msg: 3, Arg: 2})
	c.Emit(Event{Kind: KindEnqueue, Node: 0, Msg: 3, Arg: 7})
	c.Emit(Event{Kind: KindHandlerExit, Node: 0, State: 3, Msg: 1})

	if got := c.Total(); got != 7 {
		t.Errorf("Total = %d, want 7", got)
	}
	if got := c.Count(KindContAlloc); got != 3 {
		t.Errorf("Count(ContAlloc) = %d, want 3", got)
	}
	if got := c.DispatchCount(2, 1); got != 1 {
		t.Errorf("DispatchCount(2,1) = %d, want 1", got)
	}
	if got := c.MaxQueueDepth(); got != 7 {
		t.Errorf("MaxQueueDepth = %d, want 7", got)
	}
	if got := c.HeapContSites(); len(got) != 1 || got[0] != 5 {
		t.Errorf("HeapContSites = %v, want [5]", got)
	}
	if got := c.StaticContSites(); len(got) != 1 || got[0] != 2 {
		t.Errorf("StaticContSites = %v, want [2]", got)
	}
	if h, s := c.SiteAllocs(5); h != 2 || s != 0 {
		t.Errorf("SiteAllocs(5) = (%d,%d), want (2,0)", h, s)
	}
	evs := c.Events()
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Time != ev.Seq {
			t.Errorf("clockless event %d: time %d != seq %d", i, ev.Time, ev.Seq)
		}
	}
}

func TestCollectorRingWrap(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Kind: KindSend, Node: int32(i)})
	}
	if c.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", c.Dropped())
	}
	if c.Total() != 10 {
		t.Errorf("Total = %d, want 10", c.Total())
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Seq != want {
			t.Errorf("retained event %d has seq %d, want %d (oldest-first order)", i, ev.Seq, want)
		}
	}
	// Counters survive the wrap.
	if c.Count(KindSend) != 10 {
		t.Errorf("Count(Send) = %d, want 10", c.Count(KindSend))
	}
}

func TestCollectorClock(t *testing.T) {
	c := NewCollector(0)
	now := int64(100)
	c.SetClock(func() int64 { return now })
	c.Emit(Event{Kind: KindSend})
	now = 250
	c.Emit(Event{Kind: KindDeliver})
	evs := c.Events()
	if evs[0].Time != 100 || evs[1].Time != 250 {
		t.Errorf("times = %d,%d want 100,250", evs[0].Time, evs[1].Time)
	}
}

// TestSummaryGolden pins the text summary format (teapot sim -stats prints
// it verbatim; scripts/check.sh relies on the first line's shape).
func TestSummaryGolden(t *testing.T) {
	names := Names{
		States:   []string{"Home_Idle", "Home_RS", "Cache_Inv"},
		Messages: []string{"GET_RO_REQ", "PUT_DATA", "NACK"},
	}
	c := NewCollector(0)
	c.Emit(Event{Kind: KindHandlerEnter, State: 1, Msg: 0, Peer: 1})
	c.Emit(Event{Kind: KindContAlloc, Site: 5, Arg: 1})
	c.Emit(Event{Kind: KindSend, Msg: 1, Peer: 1, Flow: 1})
	c.Emit(Event{Kind: KindHandlerExit, State: 1, Msg: 0})
	c.Emit(Event{Kind: KindHandlerEnter, State: 1, Msg: 0, Peer: 1})
	c.Emit(Event{Kind: KindEnqueue, Msg: 0, Arg: 1})
	c.Emit(Event{Kind: KindHandlerExit, State: 1, Msg: 0})
	c.Emit(Event{Kind: KindHandlerEnter, State: 2, Msg: 1, Peer: 0})
	c.Emit(Event{Kind: KindContAlloc, Site: 2, Arg: 0})
	c.Emit(Event{Kind: KindSuspend, State: 2})
	c.Emit(Event{Kind: KindHandlerExit, State: 2, Msg: 1})

	const want = `obs summary: 11 events (11 retained, 0 dropped)
  events by kind:
    HandlerEnter  3
    HandlerExit   3
    Suspend       1
    ContAlloc     2
    Enqueue       1
    Send          1
  top handlers by dispatch count:
    Home_RS.GET_RO_REQ               2
    Cache_Inv.PUT_DATA               1
  continuation records: 1 heap (1 sites), 1 static (1 sites)
  max deferred-queue depth: 1
`
	if got := c.Summary(names); got != want {
		t.Errorf("summary drifted from the pinned format:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestNamesFallback(t *testing.T) {
	var n Names
	if got := n.State(3); got != "state3" {
		t.Errorf("State(3) = %q", got)
	}
	if got := n.Message(-1); got != "msg-1" {
		t.Errorf("Message(-1) = %q", got)
	}
}
