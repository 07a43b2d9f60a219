package runtime

import (
	"teapot/internal/vm"
)

// Deep-copy support for the model checker's clone-not-decode successor
// generation: expanding a state decodes it once and derives each successor
// from a structural copy instead of re-decoding the canonical encoding for
// every enabled action.
//
// The copy is shallow wherever the runtime treats structure as immutable
// after construction — messages, state values, and continuation records are
// built fresh by the VM and never mutated in place — and deep for the
// mutable containers (block variable slots, deferred queues, channel
// slices). Info handles are rebound to the clone's blocks, mirroring what
// DecodeValue does; an abstract support value is opaque to the runtime and
// is shared (it cannot be encoded either, see EncodeValue).
//
// The checker clones one engine per successor, not one per node: an action
// executes handlers on a single engine, so the successor world copies that
// one and points at the parent's others, which it only ever reads (see
// mc.World.cloneInto). And it clones into an engine it already has: each
// worker's scratch successor keeps one engine per node for the whole run,
// and CloneInto overwrites its block records, variable slots and deferred
// queues where they stand. Clone is the same walk into a new engine. Either
// way the result is a full, independent copy of the engine it was taken
// from — sharing is the caller's decision, engine by engine.

// Clone returns a deep copy of the engine's protocol state bound to
// machine m; see CloneInto.
func (e *Engine) Clone(m Machine) *Engine {
	c := new(Engine)
	e.CloneInto(c, m)
	return c
}

// CloneInto overwrites dst with a deep copy of the engine's protocol state
// bound to machine m, reusing the block records and slices dst already has
// (a zero Engine has none and gets new ones). The protocol, support module,
// and compiled program are shared; per-block state is copied so mutations
// of the clone never observe or disturb the original, and the clone builds
// its records where e does (see SetRegion). Nothing dst held before
// survives except storage: its sink, its in-flight dispatch context and
// its register stack's contents are dropped, and what is scratch in e
// (register stack, shared-value tables, parameter and retry buffers, free
// message records) is not inherited — dst keeps its own.
func (e *Engine) CloneInto(dst *Engine, m Machine) {
	exec := dst.Exec
	*dst = Engine{
		Proto:        e.Proto,
		Node:         e.Node,
		Machine:      m,
		Support:      e.Support,
		Exec:         exec,
		QueueRecords: e.QueueRecords,
		Sends:        e.Sends,
		Blocks:       dst.Blocks,
		timeoutTag:   e.timeoutTag,
		nackTag:      e.nackTag,
		timerFor:     dst.timerFor[:0],
		params:       dst.params,
		retry:        dst.retry[:0],
		free:         dst.free,
		region:       e.region,
	}
	// Clones never inherit observability (the tracer in e.Exec aims at e,
	// and the checker clones concurrently while sinks are single-goroutine)
	// nor the register stack, which e may be executing on.
	e.Exec.CloneInto(&dst.Exec)
	if dst.timeoutTag >= 0 {
		dst.armer, _ = m.(TimeoutArmer)
	}
	if dst.armer != nil {
		dst.timerFor = append(dst.timerFor, e.timerFor...)
	}
	dst.dataMachine, _ = m.(DataMachine)
	if len(dst.Blocks) != len(e.Blocks) {
		dst.Blocks = make([]*Block, len(e.Blocks))
		for i := range dst.Blocks {
			dst.Blocks[i] = new(Block)
		}
	}
	for i, b := range e.Blocks {
		nb := dst.Blocks[i]
		nb.ID, nb.transitioned = b.ID, b.transitioned
		sv, _ := dst.cloneValue(vm.StateValue(b.State), nb)
		nb.State = sv.State()
		nb.Vars = nb.Vars[:0]
		for _, v := range b.Vars {
			v, _ = dst.cloneValue(v, nb)
			nb.Vars = append(nb.Vars, v)
		}
		nb.Deferred = nb.Deferred[:0]
		for _, dm := range b.Deferred {
			nb.Deferred = append(nb.Deferred, dst.cloneMessage(dm, nb))
		}
	}
}

// CloneMessage returns a copy of msg safe to own alongside the original.
// Messages are immutable after construction, so the same pointer is
// returned unless the payload holds info handles, which are rebound to this
// engine's blocks exactly as DecodeMessage would.
func (e *Engine) CloneMessage(msg *Message) *Message {
	if msg.ID < 0 || msg.ID >= len(e.Blocks) {
		return msg
	}
	return e.cloneMessage(msg, e.Blocks[msg.ID])
}

func (e *Engine) cloneMessage(msg *Message, block *Block) *Message {
	var payload []vm.Value
	for i, v := range msg.Payload {
		nv, changed := e.cloneValue(v, block)
		if changed && payload == nil {
			payload = e.Exec.Region.Values(len(msg.Payload))
			copy(payload, msg.Payload[:i])
		}
		if payload != nil {
			payload[i] = nv
		}
	}
	if payload == nil {
		return msg
	}
	nm := e.newMessage()
	*nm = *msg
	nm.Payload = payload
	return nm
}

// cloneValue copies v for a world bound to block. The returned bool
// reports whether a new value had to be built; unchanged subtrees are
// shared, so cloning a protocol state with no info handles builds
// nothing per value.
func (e *Engine) cloneValue(v vm.Value, block *Block) (vm.Value, bool) {
	switch v.Kind {
	case vm.KState:
		sv := v.State()
		if sv == nil {
			return v, false
		}
		args, changed := e.cloneValues(sv.Args, block)
		if !changed {
			return v, false
		}
		return vm.StateValue(e.Exec.Region.NewState(sv.State, args)), true
	case vm.KCont:
		c := v.Cont()
		if c == nil {
			return v, false
		}
		saved, changed := e.cloneValues(c.Saved, block)
		if !changed {
			return v, false
		}
		nc := *c
		nc.Saved = saved
		return vm.ContVal(e.Exec.Region.NewCont(nc)), true
	case vm.KInfo:
		// Info handles always denote the enclosing block (see DecodeValue).
		return vm.InfoVal(block), true
	default:
		// Scalars are values; an abstract value cannot be rebuilt and is
		// shared.
		return v, false
	}
}

func (e *Engine) cloneValues(vs []vm.Value, block *Block) ([]vm.Value, bool) {
	var out []vm.Value
	for i, v := range vs {
		nv, changed := e.cloneValue(v, block)
		if changed && out == nil {
			out = e.Exec.Region.Values(len(vs))
			copy(out, vs[:i])
		}
		if out != nil {
			out[i] = nv
		}
	}
	if out == nil {
		return vs, false
	}
	return out, true
}
