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
// DecodeValue does, and abstract support values are round-tripped through
// the protocol's AbstractCodec.
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
func (e *Engine) Clone(m Machine, codec AbstractCodec) (*Engine, error) {
	c := new(Engine)
	return c, e.CloneInto(c, m, codec)
}

// CloneInto overwrites dst with a deep copy of the engine's protocol state
// bound to machine m, reusing the block records and slices dst already has
// (a zero Engine has none and gets new ones). The protocol, support module,
// and compiled program are shared; per-block state is copied so mutations
// of the clone never observe or disturb the original. Nothing dst held
// before survives except storage: its sink, its in-flight dispatch context
// and its register stack's contents are dropped, and what is scratch in e
// (register stack, parameter buffer, bare-state table) is not inherited.
// codec may be nil when the protocol stores no abstract values (as for
// encoding).
func (e *Engine) CloneInto(dst *Engine, m Machine, codec AbstractCodec) error {
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
		timerFor:     dst.timerFor[:0],
		bare:         dst.bare,
		params:       dst.params,
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
		sv, _, err := cloneValue(vm.StateValue(b.State), nb, codec)
		if err != nil {
			return err
		}
		nb.State = sv.State()
		nb.Vars = nb.Vars[:0]
		for _, v := range b.Vars {
			if v, _, err = cloneValue(v, nb, codec); err != nil {
				return err
			}
			nb.Vars = append(nb.Vars, v)
		}
		nb.Deferred = nb.Deferred[:0]
		for _, dm := range b.Deferred {
			if dm, err = cloneMessage(dm, nb, codec); err != nil {
				return err
			}
			nb.Deferred = append(nb.Deferred, dm)
		}
	}
	return nil
}

// CloneMessage returns a copy of msg safe to own alongside the original.
// Messages are immutable after construction, so the same pointer is
// returned unless the payload holds block-bound values (info handles,
// abstract values), which are rebound to this engine's blocks exactly as
// DecodeMessage would.
func (e *Engine) CloneMessage(msg *Message, codec AbstractCodec) (*Message, error) {
	if msg.ID < 0 || msg.ID >= len(e.Blocks) {
		return msg, nil
	}
	return cloneMessage(msg, e.Blocks[msg.ID], codec)
}

func cloneMessage(msg *Message, block *Block, codec AbstractCodec) (*Message, error) {
	var payload []vm.Value
	for i, v := range msg.Payload {
		nv, changed, err := cloneValue(v, block, codec)
		if err != nil {
			return nil, err
		}
		if changed && payload == nil {
			payload = make([]vm.Value, len(msg.Payload))
			copy(payload, msg.Payload[:i])
		}
		if payload != nil {
			payload[i] = nv
		}
	}
	if payload == nil {
		return msg, nil
	}
	nm := *msg
	nm.Payload = payload
	return &nm, nil
}

// cloneValue copies v for a world bound to block. The returned bool
// reports whether a new value had to be built; unchanged subtrees are
// shared, so cloning a protocol state with no info handles or abstract
// values allocates nothing per value.
func cloneValue(v vm.Value, block *Block, codec AbstractCodec) (vm.Value, bool, error) {
	switch v.Kind {
	case vm.KState:
		sv := v.State()
		if sv == nil {
			return v, false, nil
		}
		args, changed, err := cloneValues(sv.Args, block, codec)
		if err != nil {
			return vm.Value{}, false, err
		}
		if !changed {
			return v, false, nil
		}
		return vm.StateValue(&vm.StateVal{State: sv.State, Args: args}), true, nil
	case vm.KCont:
		c := v.Cont()
		if c == nil {
			return v, false, nil
		}
		saved, changed, err := cloneValues(c.Saved, block, codec)
		if err != nil {
			return vm.Value{}, false, err
		}
		if !changed {
			return v, false, nil
		}
		nc := *c
		nc.Saved = saved
		return vm.ContVal(&nc), true, nil
	case vm.KInfo:
		// Info handles always denote the enclosing block (see DecodeValue).
		return vm.InfoVal(block), true, nil
	case vm.KAbstract:
		if codec == nil {
			// Without a codec the value cannot be rebuilt; share it. A
			// protocol that mutates abstract values must supply a codec —
			// the same requirement encode already imposes.
			return v, false, nil
		}
		enc := &Encoder{}
		if err := codec.EncodeAbstract(v.Ref, enc); err != nil {
			return vm.Value{}, false, err
		}
		ref, err := codec.DecodeAbstract(NewDecoder(enc.Bytes()))
		if err != nil {
			return vm.Value{}, false, err
		}
		return vm.AbstractVal(ref), true, nil
	default:
		return v, false, nil
	}
}

func cloneValues(vs []vm.Value, block *Block, codec AbstractCodec) ([]vm.Value, bool, error) {
	var out []vm.Value
	for i, v := range vs {
		nv, changed, err := cloneValue(v, block, codec)
		if err != nil {
			return nil, false, err
		}
		if changed && out == nil {
			out = make([]vm.Value, len(vs))
			copy(out, vs[:i])
		}
		if out != nil {
			out[i] = nv
		}
	}
	if out == nil {
		return vs, false, nil
	}
	return out, true, nil
}
