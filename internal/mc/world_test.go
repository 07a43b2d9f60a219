package mc_test

import (
	"strings"
	"sync"
	"testing"

	"teapot/internal/core"
	"teapot/internal/mc"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// recordingGen wraps the Stache generator and inspects the World accessors.
// The checker calls Enabled concurrently, so the recording is locked.
type recordingGen struct {
	inner mc.EventGen

	mu       sync.Mutex
	sawHome  bool
	sawVar   bool
	varSlot  int
	messages int
}

func (g *recordingGen) Enabled(w *mc.World, node, block int) []mc.Event {
	g.mu.Lock()
	if w.IsHome(node, block) {
		g.sawHome = true
	}
	if w.BlockVarInt(node, block, g.varSlot) >= 0 {
		g.sawVar = true
	}
	if w.AnyMessage(func(m *runtime.Message) bool { return true }) {
		g.messages++
	}
	g.mu.Unlock()
	if w.Nodes() != 2 {
		panic("Nodes() wrong")
	}
	return g.inner.Enabled(w, node, block)
}

func TestWorldAccessors(t *testing.T) {
	cfg := bundled(t, "stache", 2, 1)
	slot := -1
	for _, v := range cfg.Proto.Sema().ProtVars {
		if v.Name == "sharers" {
			slot = v.Index
		}
	}
	g := &recordingGen{inner: cfg.Events, varSlot: slot}
	cfg.Events = g
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %s", res.Violation)
	}
	if !g.sawHome || !g.sawVar || g.messages == 0 {
		t.Errorf("accessors unexercised: %+v", g)
	}
}

// TestTraceStepsAreWellFormed: a violation trace contains only valid action
// descriptions ordered from the initial state.
func TestTraceStepsAreWellFormed(t *testing.T) {
	res, err := mc.Check(bundled(t, "stache-buggy", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("expected violation")
	}
	for i, step := range res.Violation.Trace {
		if !strings.HasPrefix(step, "deliver ") && !strings.HasPrefix(step, "event ") {
			t.Errorf("step %d malformed: %q", i, step)
		}
	}
	// The first step must be an event (the initial state has no messages).
	if !strings.HasPrefix(res.Violation.Trace[0], "event ") {
		t.Errorf("first step should be an event: %q", res.Violation.Trace[0])
	}
	// BFS traces are shortest: the seeded deadlock needs at least the
	// read, grant, two write faults, invalidation, and upgrade.
	if len(res.Violation.Trace) < 6 {
		t.Errorf("trace suspiciously short: %d steps", len(res.Violation.Trace))
	}
}

// deferGen issues a single stalling event and nothing else, to test
// deadlock detection wiring precisely.
type deferGen struct {
	tag  int
	done bool
}

func (g *deferGen) Enabled(w *mc.World, node, block int) []mc.Event {
	if node != 1 || w.StateName(1, 0) != "Cache_Inv" {
		return nil
	}
	return []mc.Event{{Name: "RD_FAULT", Tag: g.tag, Stalls: true}}
}

// blackholeProto never answers a read request: the checker must report a
// deadlock, not hang.
const blackholeProto = `
protocol Hole begin
  state Cache_Inv();
  state Wait(C : CONT) transient;
  state Home();
  message RD_FAULT;
  message REQ;
end;
state Hole.Cache_Inv() begin
  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), REQ, id);
    Suspend(L, Wait{L});
    WakeUp(id);
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
state Hole.Wait(C : CONT) begin
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state Hole.Home() begin
  message REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
`

func TestDeadlockDetectionWiring(t *testing.T) {
	art, err := compileInline(blackholeProto, "Home", "Cache_Inv")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(mc.Config{
		Proto: art, Support: nullSupport{},
		Nodes: 2, Blocks: 1,
		Events: &deferGen{tag: art.MsgIndex("RD_FAULT")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "deadlock" {
		t.Fatalf("violation = %v, want deadlock", res.Violation)
	}
	if !strings.Contains(res.Violation.Msg, "node 1 stalled") {
		t.Errorf("msg = %q", res.Violation.Msg)
	}
}

// queueFloodProto enqueues forever without transitioning; the queue cap
// must flag it.
const queueFloodProto = `
protocol Flood begin
  state S();
  message PING;
end;
state Flood.S() begin
  message PING (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, PING, id);
    Enqueue(MessageTag, id, info, src);
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
`

type pingOnce struct{ tag int }

func (g *pingOnce) Enabled(w *mc.World, node, block int) []mc.Event {
	return []mc.Event{{Name: "PING", Tag: g.tag}}
}

// TestDeferredQueueBound: a protocol that defers without bound trips the
// checker's queue (or channel) bound instead of exploring forever.
func TestDeferredQueueBound(t *testing.T) {
	art, err := compileInline(queueFloodProto, "S", "S")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(mc.Config{
		Proto: art, Support: nullSupport{},
		Nodes: 2, Blocks: 1,
		Events: &pingOnce{tag: art.MsgIndex("PING")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "invariant" {
		t.Fatalf("violation = %v, want queue/channel invariant", res.Violation)
	}
}

func compileInline(src, home, cache string) (*runtime.Protocol, error) {
	art, err := coreCompile(src, home, cache)
	if err != nil {
		return nil, err
	}
	return art, nil
}

type nullSupport struct{}

func (nullSupport) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	return vm.Value{}, nil
}
func (nullSupport) ModConst(ctx *runtime.Ctx, name string) vm.Value { return vm.Value{} }

func coreCompile(src, home, cache string) (*runtime.Protocol, error) {
	art, err := core.Compile(core.Config{
		Name: "inline.tea", Source: src, Optimize: true,
		HomeStart: home, CacheStart: cache,
	})
	if err != nil {
		return nil, err
	}
	return art.Protocol, nil
}
