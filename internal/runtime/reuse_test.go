package runtime_test

import (
	"strings"
	"testing"

	"teapot/internal/core"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// TestDispatchAllocs pins the two allocation contracts of the dispatch
// path: a delivery into a warmed engine allocates nothing (the handler's
// registers come off the Exec's register stack and its parameters out of
// the engine's buffer), and the register stack is empty again after every
// delivery, whichever way the handler left — returning, suspending,
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

// TestCloneIntoReusedEngine: CloneInto over an engine that last held a
// different state (and a sink, and a used register stack) yields exactly
// what Clone into a new engine yields, and nothing of the destination's
// past — nor the source's scratch — comes along.
func TestCloneIntoReusedEngine(t *testing.T) {
	dst, _ := cloneFixture(t, 1)
	sink := obs.NewCollector(0)
	dst.SetObs(sink)
	for seed := int64(2); seed < 40; seed++ {
		src, key := cloneFixture(t, seed)
		src.SetObs(sink)
		m := newTestMachine()
		src.CloneInto(dst, m)
		enc := &runtime.Encoder{}
		if err := dst.EncodeState(enc); err != nil {
			t.Fatal(err)
		}
		if string(enc.Bytes()) != key {
			t.Fatalf("seed %d: CloneInto over a used engine changed the encoding", seed)
		}
		if dst.Machine != runtime.Machine(m) || dst.Exec.Tracer != nil || dst.Exec.Depth() != 0 {
			t.Fatalf("seed %d: clone kept machine/tracer/stack of its past or its source", seed)
		}
		// The clone owns its containers: emptying them leaves the source be.
		for _, b := range dst.Blocks {
			for i := range b.Vars {
				b.Vars[i] = vm.IntVal(-1)
			}
			b.Deferred = b.Deferred[:0]
		}
		enc.Reset(nil)
		if err := src.EncodeState(enc); err != nil {
			t.Fatal(err)
		}
		if string(enc.Bytes()) != key {
			t.Fatalf("seed %d: mutating the clone disturbed its source", seed)
		}
	}
	before := sink.Total()
	toy, p := buildToy(t, true)
	toy.engines[1].CloneInto(dst, toy)
	if err := dst.Deliver(&runtime.Message{Tag: p.MsgIndex("PING"), ID: 0, Src: 0}); err != nil {
		t.Fatal(err)
	}
	if sink.Total() != before {
		t.Errorf("a reused clone emitted %d events into the sink it once had", sink.Total()-before)
	}
}

// TestDecodeDamagedEncoding: a truncated or otherwise damaged encoding is
// an error, never a panic and never a huge allocation.
func TestDecodeDamagedEncoding(t *testing.T) {
	e, key := cloneFixture(t, 11)
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
	if err := e.EncodeMessage(enc, &runtime.Message{Tag: 1, ID: 99, Src: 0}); err != nil {
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
