package runtime_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"teapot/internal/core"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// encodeFixture builds an engine over a protocol with suspend sites so
// continuations can be encoded.
func encodeFixture(t *testing.T) (*runtime.Engine, *runtime.Protocol) {
	t.Helper()
	art := core.MustCompile(core.Config{
		Name: "toy.tea", Source: toyProtocol, Optimize: true,
		HomeStart: "H_Idle", CacheStart: "C_Idle",
	})
	m := newTestMachine()
	e := runtime.NewEngine(art.Protocol, 1, 3, m, nullSupport{})
	m.engines = append(m.engines, nil, e)
	return e, art.Protocol
}

// randomValue generates an encodable value; depth bounds nesting.
func randomValue(rng *rand.Rand, e *runtime.Engine, depth int) vm.Value {
	switch k := rng.Intn(8); {
	case k == 0:
		return vm.IntVal(rng.Int63n(1000) - 500)
	case k == 1:
		return vm.BoolVal(rng.Intn(2) == 0)
	case k == 2:
		return vm.NodeVal(rng.Intn(8) - 1)
	case k == 3:
		return vm.IDVal(rng.Intn(3))
	case k == 4:
		return vm.MsgVal(rng.Intn(4))
	case k == 5:
		return vm.StringVal("s" + string(rune('a'+rng.Intn(26))))
	case k == 6 && depth > 0:
		sv := &vm.StateVal{State: rng.Intn(len(e.Proto.IR.Sema.States))}
		for i := 0; i < rng.Intn(3); i++ {
			sv.Args = append(sv.Args, randomValue(rng, e, depth-1))
		}
		return vm.StateValue(sv)
	case k == 7 && depth > 0 && len(e.Proto.IR.Sites) > 0:
		site := e.Proto.IR.Sites[rng.Intn(len(e.Proto.IR.Sites))]
		c := &vm.Cont{Fn: site.Func, Frag: site.FragIdx, Site: site.ID}
		for range site.Func.Frags[site.FragIdx].Saved {
			c.Saved = append(c.Saved, randomValue(rng, e, 0))
		}
		return vm.ContVal(c)
	}
	return vm.Value{}
}

// TestValueRoundTripProperty: encode∘decode is the identity on encodable
// values, under vm.Equal and under re-encoding.
func TestValueRoundTripProperty(t *testing.T) {
	e, _ := encodeFixture(t)
	block := e.Blocks[0]
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomValue(rng, e, 2)
		enc := &runtime.Encoder{}
		if err := enc.Value(v); err != nil {
			return false
		}
		got, err := e.DecodeValue(runtime.NewDecoder(enc.Bytes()), block)
		if err != nil {
			return false
		}
		enc2 := &runtime.Encoder{}
		if err := enc2.Value(got); err != nil {
			return false
		}
		return vm.Equal(v, got) && string(enc.Bytes()) == string(enc2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// stateFixture randomizes an engine's protocol state — block states,
// variables and deferred queues — and returns it with its canonical
// encoding.
func stateFixture(t *testing.T, seed int64) (*runtime.Engine, string) {
	t.Helper()
	e, p := encodeFixture(t)
	rng := rand.New(rand.NewSource(seed))
	for _, b := range e.Blocks {
		sv := randomValue(rng, e, 1)
		for sv.State() == nil {
			sv = vm.StateValue(&vm.StateVal{State: rng.Intn(len(p.IR.Sema.States))})
		}
		b.State = sv.State()
		for i := range b.Vars {
			b.Vars[i] = randomValue(rng, e, 1)
		}
		for i := 0; i < rng.Intn(3); i++ {
			b.Deferred = append(b.Deferred, &runtime.Message{
				Tag: rng.Intn(4), ID: b.ID, Src: rng.Intn(4),
				Payload: []vm.Value{randomValue(rng, e, 1)},
			})
		}
	}
	enc := &runtime.Encoder{}
	if err := e.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	return e, string(enc.Bytes())
}

// TestStateRoundTrip: for random protocol states, a full engine snapshot
// decodes into a fresh engine of the same shape to a state that re-encodes
// identically (canonical form) — what the checker relies on to rebuild a
// successor's engine from its parent's key.
func TestStateRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		e, key := stateFixture(t, seed)
		e2 := runtime.NewEngine(e.Proto, 1, 3, newTestMachine(), nullSupport{})
		if err := e2.DecodeState(runtime.NewDecoder([]byte(key))); err != nil {
			t.Fatal(err)
		}
		enc := &runtime.Encoder{}
		if err := e2.EncodeState(enc); err != nil {
			t.Fatal(err)
		}
		if string(enc.Bytes()) != key {
			t.Fatalf("seed %d: snapshot round trip not canonical", seed)
		}
	}
}

// TestClonePreservesCanonicalEncoding: a copy of an engine is made by
// decoding its encoding over an engine that already holds another state,
// the way a derived successor rebuilds the engine its action touched. For
// random states the copy re-encodes to the original's key: nothing of what
// the reused engine held before leaks into it.
func TestClonePreservesCanonicalEncoding(t *testing.T) {
	f := func(seed int64) bool {
		_, key := stateFixture(t, seed)
		dirty, _ := stateFixture(t, seed+1)
		if err := dirty.DecodeState(runtime.NewDecoder([]byte(key))); err != nil {
			return false
		}
		enc := &runtime.Encoder{}
		if err := dirty.EncodeState(enc); err != nil {
			return false
		}
		return string(enc.Bytes()) == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRebindsInfoHandles: an info handle always denotes the enclosing
// block, so one in a variable or in a deferred message's payload decodes to
// the decoding engine's own block, never the one it was encoded from.
func TestDecodeRebindsInfoHandles(t *testing.T) {
	e, _ := encodeFixture(t)
	b := e.Blocks[1]
	b.Vars[0] = vm.InfoVal(b)
	b.Deferred = append(b.Deferred, &runtime.Message{Tag: 0, ID: b.ID, Payload: []vm.Value{vm.InfoVal(b)}})
	enc := &runtime.Encoder{}
	if err := e.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	d := runtime.NewEngine(e.Proto, 1, 3, newTestMachine(), nullSupport{})
	if err := d.DecodeState(runtime.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if db := d.Blocks[1]; db.Vars[0].Ref != db || db.Deferred[0].Payload[0].Ref != db {
		t.Error("a decoded info handle does not denote the decoding engine's own block")
	}
}

// TestStateEqualsItsRoundTrip: the state a block reached by running handlers
// and the state a checker worker decodes for it are one value under the
// language's "=", continuations included — whichever records each side
// happens to share (the protocol verified is the protocol run).
func TestStateEqualsItsRoundTrip(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		art := core.MustCompile(core.Config{
			Name: "nest.tea", Source: nestedProtocol, Optimize: optimize,
			HomeStart: "S", CacheStart: "S",
		})
		e := runtime.NewEngine(art.Protocol, 0, 1, newTestMachine(), nullSupport{})
		for _, name := range []string{"GO", "M1"} { // into W1{L}, then W2{L2, y}
			if err := e.Deliver(&runtime.Message{Tag: art.Protocol.MsgIndex(name), ID: 0, Src: 0}); err != nil {
				t.Fatal(err)
			}
			enc := &runtime.Encoder{}
			if err := e.EncodeState(enc); err != nil {
				t.Fatal(err)
			}
			decoded := runtime.NewEngine(art.Protocol, 0, 1, newTestMachine(), nullSupport{})
			if err := decoded.DecodeState(runtime.NewDecoder(enc.Bytes())); err != nil {
				t.Fatal(err)
			}
			ran, dec := e.Blocks[0].State, decoded.Blocks[0].State
			if ran.Args[0].Cont() == dec.Args[0].Cont() {
				t.Fatalf("optimize=%v after %s: decoding shared the engine's record; the test compares nothing", optimize, name)
			}
			if !vm.Equal(vm.StateValue(ran), vm.StateValue(dec)) {
				t.Errorf("optimize=%v after %s: %v does not equal its own round trip %v", optimize, name, ran, dec)
			}
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	e, _ := encodeFixture(t)
	msg := &runtime.Message{
		Tag: 2, ID: 1, Src: 3, Data: true,
		Payload: []vm.Value{vm.IntVal(7), vm.BoolVal(true), vm.StringVal("x")},
	}
	enc := &runtime.Encoder{}
	if err := enc.Message(msg); err != nil {
		t.Fatal(err)
	}
	got, err := e.DecodeMessage(runtime.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 2 || got.ID != 1 || got.Src != 3 || !got.Data || len(got.Payload) != 3 {
		t.Errorf("got %+v", got)
	}
	if got.Payload[0].Int != 7 || !got.Payload[1].Bool() || got.Payload[2].Str() != "x" {
		t.Errorf("payload = %v", got.Payload)
	}
}

func TestEncoderPrimitives(t *testing.T) {
	enc := &runtime.Encoder{}
	enc.Int(-123456)
	enc.Str("hello")
	enc.Byte(0xAB)
	d := runtime.NewDecoder(enc.Bytes())
	if got := d.Int(); got != -123456 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
}

// TestIntEncodingMatchesVarint: Encoder.Int writes exactly the bytes of
// binary.AppendVarint — its one-byte path included — for every value across
// the one-, two- and three-byte lengths and for the int64 extremes, and
// Decoder.Int reads each back, to the last byte. Malformed input is refused
// with the one varint error, whichever path the first byte takes: a
// continuation byte with nothing after it, and eleven bytes whose value
// overflows 64 bits.
func TestIntEncodingMatchesVarint(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for v := int64(-1 << 14); v <= 1<<14; v++ {
		vals = append(vals, v)
	}
	var enc runtime.Encoder
	for _, v := range vals {
		enc.Reset(nil)
		enc.Int(v)
		if want := binary.AppendVarint(nil, v); !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("Int(%d) wrote %x, binary.AppendVarint %x", v, enc.Bytes(), want)
		}
		d := runtime.NewDecoder(enc.Bytes())
		if got := d.Int(); got != v || d.Finish() != nil {
			t.Fatalf("%x read back as %d (err %v), want %d", enc.Bytes(), got, d.Finish(), v)
		}
	}
	const want = "runtime: corrupt state encoding (varint)"
	for _, bad := range [][]byte{
		{},
		{0x80},
		{0xff, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
	} {
		d := runtime.NewDecoder(bad)
		if got := d.Int(); got != 0 || d.Err() == nil || d.Err().Error() != want {
			t.Errorf("%x: read %d with error %v, want 0 with %q", bad, got, d.Err(), want)
		}
		if d.Pos() != len(bad) || d.Int() != 0 || d.Err().Error() != want {
			t.Errorf("%x: the error is not sticky, or reading went on after it", bad)
		}
	}
}

// TestAbstractValueCannotBeSnapshotted: an abstract support value is opaque
// to the runtime, so a state holding one has no encoding, and an encoding
// claiming to hold one is refused.
func TestAbstractValueCannotBeSnapshotted(t *testing.T) {
	e, _ := encodeFixture(t)
	enc := &runtime.Encoder{}
	if err := enc.Value(vm.AbstractVal("opaque")); err == nil {
		t.Error("an abstract value was encoded")
	}
	d := runtime.NewDecoder([]byte{byte(vm.KAbstract)})
	if _, err := e.DecodeValue(d, e.Blocks[0]); err == nil {
		t.Error("an abstract value was decoded")
	}
}

// relabel is the reference for Encoder remapping: the value with every
// node and block id nested in it mapped, built the slow way.
func relabel(v vm.Value, r *runtime.Remap) vm.Value {
	switch v.Kind {
	case vm.KNode:
		v.Int = int64(r.MapNode(int(v.Int)))
	case vm.KID:
		v.Int = int64(r.MapBlock(int(v.Int)))
	case vm.KState:
		sv := &vm.StateVal{State: v.State().State}
		for _, a := range v.State().Args {
			sv.Args = append(sv.Args, relabel(a, r))
		}
		return vm.StateValue(sv)
	case vm.KCont:
		c := *v.Cont()
		c.Saved = nil
		for _, a := range v.Cont().Saved {
			c.Saved = append(c.Saved, relabel(a, r))
		}
		return vm.ContVal(&c)
	}
	return v
}

// TestRemappedEncodeProperty: encoding under a Remap writes exactly the
// bytes a plain encode of the relabelled structure would — for values
// (ids nested in state arguments and continuation saves, the -1 "no node"
// sentinel and out-of-machine ids left alone), for messages (Src, ID,
// payload), and for a whole engine (blocks in image order, a declared
// node-bitmask slot re-indexed bit by bit).
func TestRemappedEncodeProperty(t *testing.T) {
	e, p := encodeFixture(t)
	if len(e.Blocks[0].Vars) == 0 {
		t.Fatal("fixture protocol has no variable to use as a bitmask slot")
	}
	r := runtime.NewRemap([]int{0, 3, 1, 2, 5, 4}, []int{2, 0, 1}, []int{0})
	plain := func(f func(enc *runtime.Encoder) error) string {
		enc := &runtime.Encoder{}
		if err := f(enc); err != nil {
			t.Fatal(err)
		}
		return string(enc.Bytes())
	}
	remapped := func(f func(enc *runtime.Encoder) error) string {
		enc := &runtime.Encoder{}
		enc.Int(99) // Reset must discard earlier content and keep the buffer
		enc.Reset(r)
		if err := f(enc); err != nil {
			t.Fatal(err)
		}
		return string(enc.Bytes())
	}
	rng := rand.New(rand.NewSource(7))
	nested := 0
	for i := 0; i < 500; i++ {
		v := randomValue(rng, e, 2)
		if v.Kind == vm.KCont || v.Kind == vm.KState {
			nested++
		}
		got := remapped(func(enc *runtime.Encoder) error { return enc.Value(v) })
		want := plain(func(enc *runtime.Encoder) error { return enc.Value(relabel(v, r)) })
		if got != want {
			t.Fatalf("value %v: remapped encode %x, encode of relabelled value %x", v, got, want)
		}
		m := &runtime.Message{Tag: rng.Intn(4), ID: rng.Intn(4) - 1, Src: rng.Intn(8) - 1,
			Payload: []vm.Value{v, randomValue(rng, e, 1)}}
		rm := &runtime.Message{Tag: m.Tag, ID: r.MapBlock(m.ID), Src: r.MapNode(m.Src),
			Payload: []vm.Value{relabel(m.Payload[0], r), relabel(m.Payload[1], r)}}
		got = remapped(func(enc *runtime.Encoder) error { return enc.Message(m) })
		want = plain(func(enc *runtime.Encoder) error { return enc.Message(rm) })
		if got != want {
			t.Fatalf("message %+v: remapped encode differs from encode of relabelled message", m)
		}
	}
	if nested < 50 {
		t.Fatalf("only %d nested values generated", nested)
	}

	// Whole engine: distinct state per block, mask slot 0 = {1, 2, 7}.
	m2 := newTestMachine()
	image := runtime.NewEngine(p, 1, 3, m2, nullSupport{})
	for i, b := range e.Blocks {
		b.State = &vm.StateVal{State: i % len(p.IR.Sema.States), Args: []vm.Value{vm.NodeVal(i + 1), vm.IDVal(i)}}
		b.Vars[0] = vm.IntVal(1<<1 | 1<<2 | 1<<7)
		b.Deferred = []*runtime.Message{{Tag: 1, ID: i, Src: 2, Payload: []vm.Value{vm.IDVal(i)}}}
		ib := image.Blocks[r.MapBlock(i)]
		ib.State = relabel(vm.StateValue(b.State), r).State()
		copy(ib.Vars, b.Vars)
		ib.Vars[0] = vm.IntVal(1<<3 | 1<<1 | 1<<7) // 1→3, 2→1, 7 is outside the machine
		ib.Deferred = []*runtime.Message{{Tag: 1, ID: r.MapBlock(i), Src: 1, Payload: []vm.Value{vm.IDVal(r.MapBlock(i))}}}
	}
	got := remapped(func(enc *runtime.Encoder) error { return e.EncodeState(enc) })
	want := plain(func(enc *runtime.Encoder) error { return image.EncodeState(enc) })
	if got != want {
		t.Errorf("engine state: remapped encode\n%x\nencode of relabelled engine\n%x", got, want)
	}
}
