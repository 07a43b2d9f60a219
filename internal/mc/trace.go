package mc

import "fmt"

// Step is one machine-readable counterexample step. Violation.Trace renders
// the same transitions for humans; Step carries them structurally so tools
// can re-execute a counterexample (see ReplaySteps and DiffReplay).
type Step struct {
	// Kind is one of "deliver", "drop", "dup", "timeout", "event",
	// "client".
	Kind string
	// From, To, Idx locate the message for the channel kinds (deliver,
	// drop, dup): position Idx within the From->To channel.
	From, To, Idx int
	// Node, Block locate the processor for "timeout", "event", and
	// "client" (a client step is the node's next scripted operation, so
	// Node alone identifies it; Block is informational).
	Node, Block int
	// Event is the event name for Kind "event".
	Event string
	// Msg is the message name for the channel kinds (informational; replay
	// matches on position, which is exact).
	Msg string
}

func (s Step) String() string {
	switch s.Kind {
	case "deliver", "drop", "dup":
		return fmt.Sprintf("%s %s node%d->node%d[%d]", s.Kind, s.Msg, s.From, s.To, s.Idx)
	case "timeout":
		return fmt.Sprintf("timeout blk%d node%d", s.Block, s.Node)
	case "client":
		return fmt.Sprintf("client blk%d node%d", s.Block, s.Node)
	}
	return fmt.Sprintf("event %s blk%d node%d", s.Event, s.Block, s.Node)
}

// step renders an action as a machine-readable Step against the pre-action
// world (needed to name the message still sitting in its channel).
func (w *World) step(a action) Step {
	st := Step{From: a.from, To: a.to, Idx: a.idx, Node: a.node, Block: a.block}
	switch a.kind {
	case actDeliver:
		st.Kind = "deliver"
	case actDrop:
		st.Kind = "drop"
	case actDup:
		st.Kind = "dup"
	case actTimeout:
		st.Kind = "timeout"
		return st
	case actClient:
		st.Kind = "client"
		return st
	default:
		st.Kind = "event"
		st.Event = a.event.Name
		return st
	}
	m := w.channels[a.from*w.cfg.Nodes+a.to][a.idx]
	st.Msg = w.msgName(m.Tag)
	st.Block = m.ID
	return st
}

// resolveStep finds the enabled action matching st, or an error if the
// counterexample has diverged from the world being replayed.
func (w *World) resolveStep(st Step) (action, error) {
	for _, a := range w.actions() {
		cand := w.step(a)
		switch st.Kind {
		case "deliver", "drop", "dup":
			if cand.Kind == st.Kind && cand.From == st.From && cand.To == st.To && cand.Idx == st.Idx {
				return a, nil
			}
		case "timeout":
			if cand.Kind == "timeout" && cand.Node == st.Node && cand.Block == st.Block {
				return a, nil
			}
		case "event":
			if cand.Kind == "event" && cand.Node == st.Node && cand.Block == st.Block && cand.Event == st.Event {
				return a, nil
			}
		case "client":
			if cand.Kind == "client" && cand.Node == st.Node {
				return a, nil
			}
		}
	}
	return action{}, fmt.Errorf("mc: step %v not enabled in replayed world", st)
}

// ReplaySteps re-executes a machine-readable counterexample from the
// initial state. After each step is applied, visit is called with the step
// index, the step, the resolved processor event (non-nil only for Kind
// "event" steps), the post-step world, and the protocol error the step
// raised (non-nil only on the final step of a protocol-error
// counterexample; replay stops there). A visit error aborts the replay.
func ReplaySteps(cfg Config, steps []Step, visit func(i int, st Step, ev *Event, w *World, applyErr error) error) error {
	cfg.normalize()
	if err := cfg.validate(); err != nil {
		return err
	}
	w := newWorld(&cfg)
	for i, st := range steps {
		a, err := w.resolveStep(st)
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		var ev *Event
		if a.kind == actEvent {
			e := a.event
			ev = &e
		}
		applyErr := w.apply(a)
		if visit != nil {
			if err := visit(i, st, ev, w, applyErr); err != nil {
				return err
			}
		}
		if applyErr != nil {
			if i != len(steps)-1 {
				return fmt.Errorf("mc: step %d failed mid-trace: %w", i, applyErr)
			}
			return nil
		}
	}
	return nil
}

// DiffReplay is the differential check on the checker's state machinery. It
// re-executes a counterexample two ways at once and requires agreement
// after every step. One side is ReplaySteps: straight-line execution on a
// single world with persistent engines, nothing decoded — the way the
// simulator drives a protocol. The other takes each step the way Check
// takes a transition: decode the pre-state's key into a kept world, derive
// from it into a kept scratch world re-decoding only the engine the action
// runs on, apply, encode. The two keys must be byte-equal, a failing step
// must fail identically on both sides, and the decoded parent must still
// encode to the key it was decoded from (Check derives a state's other
// successors from it). So the visited-set codec, the in-place decode, the
// single-engine derivation and the channel edits are each exercised on
// every step of every trace replayed.
func DiffReplay(cfg Config, steps []Step) error {
	if len(steps) == 0 {
		// A deadlock in the initial state has nothing to replay.
		return fmt.Errorf("mc: counterexample carries no machine-readable steps")
	}
	ccfg := cfg
	ccfg.normalize()
	ccfg.Obs = nil // as in Check
	parent, succ := newWorld(&ccfg), newWorld(&ccfg)
	key, err := parent.encode()
	if err != nil {
		return err
	}
	return ReplaySteps(cfg, steps, func(i int, st Step, _ *Event, w *World, applyErr error) error {
		if err := ccfg.decodeInto(parent, []byte(key)); err != nil {
			return fmt.Errorf("mc: step %d: decode: %w", i, err)
		}
		a, err := parent.resolveStep(st)
		if err != nil {
			return fmt.Errorf("step %d, decoded world: %w", i, err)
		}
		if err := parent.derive(succ, a.engine()); err != nil {
			return fmt.Errorf("mc: step %d: derive: %w", i, err)
		}
		derivedErr := succ.apply(a)
		if after, err := parent.encode(); err != nil || after != key {
			return fmt.Errorf("mc: step %d (%v): applying to the derived successor changed its parent (encode error %v)", i, st, err)
		}
		if applyErr != nil || derivedErr != nil {
			if applyErr == nil || derivedErr == nil || applyErr.Error() != derivedErr.Error() {
				return fmt.Errorf("mc: step %d (%v): errors disagree:\n  straight-line:  %v\n  decode+derive:  %v", i, st, applyErr, derivedErr)
			}
			return nil
		}
		want, err := w.encode()
		if err != nil {
			return fmt.Errorf("mc: step %d: encode: %w", i, err)
		}
		if key, err = succ.encode(); err != nil {
			return fmt.Errorf("mc: step %d: encode: %w", i, err)
		}
		if key != want {
			return fmt.Errorf("mc: step %d (%v): states diverge (%d vs %d canonical bytes)", i, st, len(want), len(key))
		}
		return nil
	})
}
