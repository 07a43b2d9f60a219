package runtime_test

import (
	"reflect"
	"strings"
	"testing"

	"teapot/internal/core"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// loopProtocol is one node talking to itself, so every record its machine
// releases comes back to the engine that sends: GO calls a support routine,
// sends, and moves between two argument-less states (BACK undoes it); ASK
// sends and suspends at a site with nothing to save, and ANS resumes it.
const loopProtocol = `
module Notes begin
  procedure Note(var info : INFO; n : NODE);
end;

protocol Loop begin
  var notes : int;
  state A();
  state B();
  state W(C : CONT) transient;
  message GO;
  message BACK;
  message ASK;
  message ANS;
end;

state Loop.A() begin
  message GO (id : ID; var info : INFO; src : NODE)
  begin
    Note(info, src);
    Send(src, BACK, id);
    SetState(info, B{});
  end;
  message ASK (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, ANS, id);
    Suspend(L, W{L});
    SetState(info, A{});
  end;
end;

state Loop.B() begin
  message BACK (id : ID; var info : INFO; src : NODE)
  begin
    SetState(info, A{});
  end;
end;

state Loop.W(C : CONT) begin
  message ANS (id : ID; var info : INFO; src : NODE)
  begin
    Resume(C);
  end;
end;
`

// noteSupport counts Note calls in the block's first variable.
type noteSupport struct{}

func (noteSupport) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	ctx.Block.Vars[0].Int += args[1].Int + 1
	return vm.Value{}, nil
}
func (noteSupport) ModConst(ctx *runtime.Ctx, name string) vm.Value { return vm.Value{} }

// TestDispatchAllocs pins the allocation contracts of the dispatch path: a
// delivery into a warmed engine allocates nothing (the handler's registers
// come off the Exec's register stack and its parameters out of the engine's
// buffer) — not for a support call, a Send whose record the machine
// releases, or a transition into an argument-less state either — a Suspend
// at a static site allocates the state value that carries the continuation,
// in one allocation with its argument, and no continuation record; and the
// register stack is empty again after
// every delivery, whichever way the handler left — returning, suspending,
// tail-resuming through nested continuations, or failing.
func TestDispatchAllocs(t *testing.T) {
	// The BenchmarkEngineDispatch/NoSink loop: a PING into C_Valid.
	m, p := buildToy(t, true)
	cache := m.engines[1]
	ping := &runtime.Message{Tag: p.MsgIndex("PING"), ID: 0, Src: 0}
	if err := cache.Deliver(ping); err != nil { // warm the stack and buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := cache.Deliver(ping); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Deliver allocates %v times over a warmed engine, want 0", n)
	}

	art := core.MustCompile(core.Config{
		Name: "loop.tea", Source: loopProtocol, Optimize: true,
		HomeStart: "A", CacheStart: "A",
	})
	lm := newTestMachine()
	lm.releases = true
	loop := runtime.NewEngine(art.Protocol, 0, 1, lm, noteSupport{})
	lm.engines = append(lm.engines, loop)
	var waiting *vm.Cont // the record the block waited on in the last ASK round
	round := func(name string) func() {
		msg := &runtime.Message{Tag: art.Protocol.MsgIndex(name), ID: 0, Src: 0}
		return func() {
			if err := loop.Deliver(msg); err != nil {
				t.Fatal(err)
			}
			if name == "ASK" {
				waiting = loop.Blocks[0].State.Args[0].Cont()
			}
			lm.pump(t)
			if d, s := loop.Exec.Depth(), loop.Blocks[0].StateName(art.Protocol); d != 0 || s != "A" {
				t.Fatalf("%s round ended at stack depth %d in state %s", name, d, s)
			}
		}
	}
	for _, row := range []struct {
		name string
		max  float64
	}{{"GO", 0}, {"ASK", 1}} {
		run := round(row.name)
		run() // warm: the free list gets its record, the tables their entries
		first := waiting
		if n := testing.AllocsPerRun(200, run); n > row.max {
			t.Errorf("a %s round allocates %v times over a warmed engine, want at most %v", row.name, n, row.max)
		}
		if waiting != first {
			t.Errorf("%s: the static site built a second continuation record", row.name)
		}
	}
	if got := loop.Blocks[0].Vars[0].Int; got != 202 {
		t.Errorf("support routine ran %d times, want 202", got)
	}

	for _, optimize := range []bool{false, true} {
		art := core.MustCompile(core.Config{
			Name: "nest.tea", Source: nestedProtocol, Optimize: optimize,
			HomeStart: "S", CacheStart: "S",
		})
		e := runtime.NewEngine(art.Protocol, 0, 1, newTestMachine(), nullSupport{})
		deliver := func(name string, payload ...vm.Value) error {
			err := e.Deliver(&runtime.Message{Tag: art.Protocol.MsgIndex(name), ID: 0, Src: 0, Payload: payload})
			if d := e.Exec.Depth(); d != 0 {
				t.Fatalf("optimize=%v: register stack at depth %d after %s (err %v)", optimize, d, name, err)
			}
			return err
		}
		// A handler that fails inside the interpreter, mid-frame.
		e.Exec.MaxSteps = 2
		if err := deliver("GO"); err == nil || !strings.Contains(err.Error(), "exceeded 2 steps") {
			t.Fatalf("optimize=%v: runaway guard: err = %v", optimize, err)
		}
		e.Exec.MaxSteps = 0
		// A dispatch refused before any frame is carved.
		if err := deliver("GO", vm.IntVal(1)); err == nil {
			t.Fatalf("optimize=%v: surplus payload accepted", optimize)
		}
		// Suspend, nested suspend, and the resume chain M2 -> M1 -> GO.
		for _, name := range []string{"GO", "M1", "M2"} {
			if err := deliver(name); err != nil {
				t.Fatalf("optimize=%v: deliver %s: %v", optimize, name, err)
			}
		}
		if got := e.Blocks[0].Vars[art.Sema.ProtVars[0].Index].Int; got != 20121 {
			t.Errorf("optimize=%v: result = %d, want 20121", optimize, got)
		}
	}
}

// TestDeferredSurvivesRecycling: a record the engine deferred is not the
// machine's to recycle, and an injected event that was deferred is not left
// in the engine's scratch message. Both wait out a hundred later sends on
// recycled records and drain with the tag and source they arrived with.
func TestDeferredSurvivesRecycling(t *testing.T) {
	art := core.MustCompile(core.Config{
		Name: "toy.tea", Source: toyProtocol, Optimize: true,
		HomeStart: "H_Idle", CacheStart: "C_Idle",
	})
	p := art.Protocol
	m := newTestMachine()
	m.releases = true
	const blocks = 101
	for n := 0; n < 2; n++ {
		m.engines = append(m.engines, runtime.NewEngine(p, n, blocks, m, nullSupport{}))
	}
	cache := m.engines[1]
	sink := obs.NewCollector(0)
	cache.SetObs(sink)
	fault, ping := p.MsgIndex("RD_FAULT"), p.MsgIndex("PING")

	// Block 0 waits for its fill, whose request is held back.
	if err := cache.InjectEvent(fault, 0); err != nil {
		t.Fatal(err)
	}
	held := m.queue
	m.queue = nil
	// A network PING and a local one both arrive meanwhile and are deferred.
	fromHome := &runtime.Message{Tag: ping, ID: 0, Src: 0}
	if err := cache.Deliver(fromHome); err != nil {
		t.Fatal(err)
	}
	cache.Release(fromHome) // refused: the engine holds it
	if err := cache.InjectEvent(ping, 0); err != nil {
		t.Fatal(err)
	}
	// A hundred fills on the other blocks: every one an injected event, a
	// send, and a reply whose record is released to the cache and reused.
	for b := 1; b < blocks; b++ {
		if err := cache.InjectEvent(fault, b); err != nil {
			t.Fatal(err)
		}
		m.pump(t)
	}
	if cache.Sends != blocks {
		t.Fatalf("cache sent %d messages, want %d", cache.Sends, blocks)
	}
	m.queue = held
	m.pump(t)

	var drained [][2]int32
	for _, ev := range sink.Events() {
		if ev.Kind == obs.KindDequeue {
			drained = append(drained, [2]int32{ev.Msg, ev.Peer})
		}
	}
	want := [][2]int32{{int32(ping), 0}, {int32(ping), 1}}
	if !reflect.DeepEqual(drained, want) {
		t.Errorf("drained (tag, source) = %v, want %v", drained, want)
	}
	if got := cache.Blocks[0].Vars[slotOf(t, p, "pings")].Int; got != 2 {
		t.Errorf("pings = %d, want 2", got)
	}
}

// TestDecodeDamagedEncoding: a truncated or otherwise damaged encoding is
// an error, never a panic and never a huge allocation.
func TestDecodeDamagedEncoding(t *testing.T) {
	e, key := stateFixture(t, 11)
	fresh := func() *runtime.Engine {
		return runtime.NewEngine(e.Proto, 1, 3, newTestMachine(), nullSupport{})
	}
	if err := fresh().DecodeState(runtime.NewDecoder([]byte(key))); err != nil {
		t.Fatalf("intact encoding: %v", err)
	}
	for cut := 0; cut < len(key); cut++ {
		d := runtime.NewDecoder([]byte(key[:cut]))
		err := fresh().DecodeState(d)
		if err == nil {
			err = d.Finish()
		}
		if err == nil {
			t.Errorf("truncation at %d of %d decoded without error", cut, len(key))
		}
	}
	d := runtime.NewDecoder([]byte(key + "\x00"))
	if err := fresh().DecodeState(d); err != nil || d.Finish() == nil {
		t.Errorf("trailing byte: DecodeState %v, Finish %v; want nil and an error", err, d.Finish())
	}

	// A message naming a block the engine does not have.
	enc := &runtime.Encoder{}
	if err := enc.Message(&runtime.Message{Tag: 1, ID: 99, Src: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DecodeMessage(runtime.NewDecoder(enc.Bytes())); err == nil {
		t.Error("message for block 99 of 3 decoded without error")
	}
	// A payload count no encoding this short could hold.
	enc.Reset(nil)
	enc.Int(1)       // tag
	enc.Int(0)       // block
	enc.Int(0)       // src
	enc.Byte(0)      // no data
	enc.Int(0)       // val
	enc.Int(1 << 40) // payload count
	if _, err := e.DecodeMessage(runtime.NewDecoder(enc.Bytes())); err == nil {
		t.Error("absurd payload count decoded without error")
	}
	// Sticky: after a failure every read is zero and the first error stays.
	sd := runtime.NewDecoder([]byte{0x80})
	if sd.Int() != 0 || sd.Err() == nil {
		t.Fatal("unterminated varint not reported")
	}
	first := sd.Err()
	if sd.Byte() != 0 || sd.Str() != "" || sd.Count() != 0 || sd.Err() != first {
		t.Error("decoder error is not sticky")
	}
}

// TestResetMatchesNew: an engine that has run — blocks moved out of their
// start states, a variable counted up, a message deferred, counters and
// flow ids advanced — encodes after Reset to the bytes a new engine does,
// with every counter zero, and its next send carries the flow id a new
// engine's first send would.
func TestResetMatchesNew(t *testing.T) {
	art := core.MustCompile(core.Config{
		Name: "toy.tea", Source: toyProtocol, Optimize: true,
		HomeStart: "H_Idle", CacheStart: "C_Idle",
	})
	p := art.Protocol
	m := newTestMachine()
	m.releases = true
	for n := 0; n < 2; n++ {
		m.engines = append(m.engines, runtime.NewEngine(p, n, 3, m, nullSupport{}))
	}
	cache := m.engines[1]
	sink := obs.NewCollector(0)
	cache.SetObs(sink)
	fault, ping := p.MsgIndex("RD_FAULT"), p.MsgIndex("PING")
	firstFlow := func() int64 {
		for _, ev := range sink.Events() {
			if ev.Kind == obs.KindSend {
				return ev.Flow
			}
		}
		t.Fatal("no send")
		return 0
	}
	encode := func(e *runtime.Engine) string {
		enc := &runtime.Encoder{}
		if err := e.EncodeState(enc); err != nil {
			t.Fatal(err)
		}
		return string(enc.Bytes())
	}

	// Block 0 waits for a fill that is held back, with a PING deferred
	// behind it; block 1 is filled and pinged.
	if err := cache.InjectEvent(fault, 0); err != nil {
		t.Fatal(err)
	}
	flow := firstFlow()
	m.queue = nil
	for _, id := range []int{0, 1} {
		if err := cache.Deliver(&runtime.Message{Tag: ping, ID: id, Src: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.InjectEvent(fault, 1); err != nil {
		t.Fatal(err)
	}
	m.pump(t)
	if len(cache.Blocks[0].Deferred) != 1 || cache.QueueRecords == 0 || cache.Sends != 2 {
		t.Fatalf("fixture: %d deferred, %d queue records, %d sends", len(cache.Blocks[0].Deferred), cache.QueueRecords, cache.Sends)
	}
	want := encode(runtime.NewEngine(p, 1, 3, newTestMachine(), nullSupport{}))
	if encode(cache) == want {
		t.Fatal("fixture: the run left the engine in its start state")
	}

	cache.Reset()
	if got := encode(cache); got != want {
		t.Errorf("after Reset the engine encodes to %q, a new engine to %q", got, want)
	}
	if c := cache.Counters(); c != (vm.Counters{}) || cache.QueueRecords != 0 || cache.Sends != 0 {
		t.Errorf("after Reset: counters %+v, %d queue records, %d sends", c, cache.QueueRecords, cache.Sends)
	}
	sink = obs.NewCollector(0)
	cache.SetObs(sink)
	if err := cache.InjectEvent(fault, 0); err != nil {
		t.Fatal(err)
	}
	if got := firstFlow(); got != flow {
		t.Errorf("first send after Reset has flow id %#x, a new engine's has %#x", got, flow)
	}
}
