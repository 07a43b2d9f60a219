package runtime_test

import (
	"strings"
	"testing"

	"teapot/internal/obs"
	"teapot/internal/runtime"
)

// TestObsEventStream runs the toy fetch round trip (with a deferred PING)
// under a collector and checks the emitted event stream end to end:
// handler brackets balance, sends correlate with delivers through flow
// ids, and the continuation machinery (suspend, alloc, resume) and the
// deferred queue (enqueue, dequeue) all surface.
func TestObsEventStream(t *testing.T) {
	m, p := buildToy(t, true)
	c := obs.NewCollector(0)
	for _, e := range m.engines {
		e.SetObs(c)
	}
	cache := m.engines[1]
	if err := cache.InjectEvent(p.MsgIndex("RD_FAULT"), 0); err != nil {
		t.Fatalf("fault: %v", err)
	}
	// PING while suspended: deferred, replayed after the transition.
	if err := cache.Deliver(&runtime.Message{Tag: p.MsgIndex("PING"), ID: 0, Src: 0}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	m.pump(t)

	if enter, exit := c.Count(obs.KindHandlerEnter), c.Count(obs.KindHandlerExit); enter == 0 || enter != exit {
		t.Errorf("handler brackets unbalanced: %d enters, %d exits", enter, exit)
	}
	for kind, want := range map[obs.Kind]int64{
		obs.KindSuspend:   1, // RD_FAULT handler suspends once
		obs.KindContAlloc: 1,
		obs.KindResume:    1, // GET_RESP resumes it
		obs.KindEnqueue:   1, // the deferred PING
		obs.KindDequeue:   1, // replayed after the transition
		obs.KindSend:      2, // GET_REQ and GET_RESP
		obs.KindDeliver:   4, // the two sends, the injected RD_FAULT, the direct PING
	} {
		if got := c.Count(kind); got != want {
			t.Errorf("Count(%v) = %d, want %d", kind, got, want)
		}
	}
	// Every send's flow id must be seen again on exactly one deliver, and
	// the injected PING (never sent) must carry no flow.
	sent := make(map[int64]int)
	for _, ev := range c.Events() {
		switch ev.Kind {
		case obs.KindSend:
			if ev.Flow == 0 {
				t.Errorf("send event without flow id: %+v", ev)
			}
			sent[ev.Flow]++
		case obs.KindDeliver:
			if ev.Flow == 0 {
				names := obs.Names{Messages: msgNames(p)}
				if name := names.Message(ev.Msg); name != "PING" && name != "RD_FAULT" {
					t.Errorf("flowless deliver of %s", name)
				}
				continue
			}
			if sent[ev.Flow] != 1 {
				t.Errorf("deliver flow %#x not matched by one send", ev.Flow)
			}
			sent[ev.Flow] = 0
		}
	}
	for flow, n := range sent {
		if n != 0 {
			t.Errorf("send flow %#x never delivered", flow)
		}
	}
	// The dispatch table names real transitions.
	names := runtime.ObsNames(p)
	if got := c.DispatchCount(p.StateIndex("H_Idle"), p.MsgIndex("GET_REQ")); got != 1 {
		t.Errorf("DispatchCount(H_Idle, GET_REQ) = %d, want 1", got)
	}
	if names.State(int32(p.StateIndex("C_Wait"))) != "C_Wait" {
		t.Errorf("ObsNames missing C_Wait")
	}
}

func msgNames(p *runtime.Protocol) []string {
	sm := p.Sema()
	out := make([]string, len(sm.Messages))
	for i, m := range sm.Messages {
		out[i] = m.Name
	}
	return out
}

// TestObsDetach checks that SetObs(nil) fully disarms tracing.
func TestObsDetach(t *testing.T) {
	m, p := buildToy(t, true)
	c := obs.NewCollector(0)
	cache := m.engines[1]
	cache.SetObs(c)
	cache.SetObs(nil)
	if err := cache.InjectEvent(p.MsgIndex("RD_FAULT"), 0); err != nil {
		t.Fatalf("fault: %v", err)
	}
	m.pump(t)
	if c.Total() != 0 {
		t.Errorf("detached sink still saw %d events", c.Total())
	}
	if cache.Exec.Tracer != nil {
		t.Error("detaching left the VM tracer installed")
	}
}

// TestObsChromeTraceFromEngine drives the toy protocol and round-trips the
// resulting event window through the Chrome trace writer and validator.
func TestObsChromeTraceFromEngine(t *testing.T) {
	m, p := buildToy(t, true)
	c := obs.NewCollector(0)
	for _, e := range m.engines {
		e.SetObs(c)
	}
	if err := m.engines[1].InjectEvent(p.MsgIndex("RD_FAULT"), 0); err != nil {
		t.Fatalf("fault: %v", err)
	}
	m.pump(t)
	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, c.Events(), runtime.ObsNames(p)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := obs.ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("engine-produced trace fails validation: %v\n%s", err, sb.String())
	}
}

// BenchmarkEngineDispatch measures one full message dispatch (a PING into
// C_Valid, the cheapest real handler). The NoSink variant is the
// zero-cost-when-disabled claim: it must match the pre-obs baseline in
// allocs/op exactly and ns/op within noise.
func BenchmarkEngineDispatch(b *testing.B) {
	run := func(b *testing.B, sink obs.Sink) {
		m, p := buildToy(b, true)
		cache := m.engines[1]
		if sink != nil {
			cache.SetObs(sink)
		}
		ping := &runtime.Message{Tag: p.MsgIndex("PING"), ID: 0, Src: 0}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cache.Deliver(ping); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("NoSink", func(b *testing.B) { run(b, nil) })
	b.Run("Collector", func(b *testing.B) { run(b, obs.NewCollector(1<<16)) })
}
