package runtime_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// cloneFixture randomizes an engine's protocol state (like the encode
// round-trip tests do) and returns it with its canonical encoding.
func cloneFixture(t *testing.T, seed int64) (*runtime.Engine, string) {
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

// TestClonePreservesCanonicalEncoding: for random protocol states, the
// clone's canonical encoding is identical to the original's — clone+encode
// agrees with the encode∘decode path the checker used before.
func TestClonePreservesCanonicalEncoding(t *testing.T) {
	f := func(seed int64) bool {
		e, key := cloneFixture(t, seed)
		c := e.Clone(newTestMachine())
		enc := &runtime.Encoder{}
		if err := c.EncodeState(enc); err != nil {
			return false
		}
		return string(enc.Bytes()) == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCloneIsolation: mutating the clone's variables, deferred queues, and
// state never disturbs the original's canonical encoding.
func TestCloneIsolation(t *testing.T) {
	e, key := cloneFixture(t, 7)
	c := e.Clone(newTestMachine())
	for _, b := range c.Blocks {
		b.State = &vm.StateVal{State: 0}
		for i := range b.Vars {
			b.Vars[i] = vm.IntVal(-999)
		}
		b.Deferred = append(b.Deferred, &runtime.Message{Tag: 0, ID: b.ID})
	}
	enc := &runtime.Encoder{}
	if err := e.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	if string(enc.Bytes()) != key {
		t.Error("mutating the clone changed the original's encoding")
	}
}

// TestCloneRebindsInfoHandles: info handles inside variables, state args,
// and deferred payloads must refer to the clone's own blocks, exactly as
// DecodeValue rebinds them.
func TestCloneRebindsInfoHandles(t *testing.T) {
	e, _ := encodeFixture(t)
	b := e.Blocks[1]
	b.Vars[0] = vm.InfoVal(b)
	b.State = &vm.StateVal{State: b.State.State, Args: nil}
	b.Deferred = append(b.Deferred, &runtime.Message{
		Tag: 0, ID: b.ID, Payload: []vm.Value{vm.InfoVal(b)},
	})

	c := e.Clone(newTestMachine())
	cb := c.Blocks[1]
	if cb.Vars[0].Ref != cb {
		t.Error("cloned var info handle still points at the original block")
	}
	if cb.Deferred[0].Payload[0].Ref != cb {
		t.Error("cloned deferred payload info handle not rebound")
	}
	if b.Vars[0].Ref != b {
		t.Error("original's info handle was disturbed")
	}
}

// TestCloneSharesImmutableStructure: values without block-bound leaves are
// shared, not copied — the cheapness the checker's clone-not-decode path
// relies on.
func TestCloneSharesImmutableStructure(t *testing.T) {
	e, _ := encodeFixture(t)
	b := e.Blocks[0]
	sv := &vm.StateVal{State: 1, Args: []vm.Value{vm.IntVal(3)}}
	b.State = sv
	msg := &runtime.Message{Tag: 1, ID: 0, Payload: []vm.Value{vm.IntVal(9)}}
	b.Deferred = append(b.Deferred, msg)

	c := e.Clone(newTestMachine())
	if c.Blocks[0].State != sv {
		t.Error("state value without info handles should be shared")
	}
	if c.Blocks[0].Deferred[0] != msg {
		t.Error("message without block-bound payload should be shared")
	}
}

// TestCloneSharesAbstractValues: an abstract support value cannot be
// rebuilt, so the clone holds the very value the original does — in a
// variable, and in a message payload without copying the message.
func TestCloneSharesAbstractValues(t *testing.T) {
	e, _ := encodeFixture(t)
	ref := new(int)
	b := e.Blocks[0]
	b.Vars[0] = vm.AbstractVal(ref)
	msg := &runtime.Message{Tag: 1, ID: 0, Payload: []vm.Value{vm.AbstractVal(ref)}}
	b.Deferred = append(b.Deferred, msg)

	c := e.Clone(newTestMachine())
	if got := c.Blocks[0].Vars[0]; got.Kind != vm.KAbstract || got.Ref != ref {
		t.Errorf("cloned variable = %+v, want the original's abstract value", got)
	}
	if c.Blocks[0].Deferred[0] != msg || e.CloneMessage(msg) != msg {
		t.Error("a message whose payload is abstract should be shared")
	}
}
