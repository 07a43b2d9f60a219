package analysis

import (
	"teapot/internal/dot"
	"teapot/internal/ir"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// policy classifies how a state treats a message that reaches it.
type policy int

const (
	polMissing  policy = iota // no handler and no DEFAULT
	polExplicit               // dedicated handler
	polDefer                  // DEFAULT enqueues
	polReject                 // DEFAULT calls Error (an explicit "cannot happen")
	polNack                   // DEFAULT nacks
	polDrop                   // DEFAULT drops (or does nothing)
)

// side labels which half of the protocol a state belongs to, derived from
// reachability from the configured start states.
type side int

const (
	sideNone side = iota // unreachable from either start
	sideHome
	sideCache
	sideBoth
)

// facts holds the protocol-wide structures the passes share. Everything is
// indexed by sema state/message indices, so iteration order is fixed.
type facts struct {
	file string

	// succ is the static state graph: for each state, the dedup'd set of
	// successor states over SetState and Suspend targets (the transitions
	// internal/dot draws, including transient states; self-loops excluded).
	succ [][]int
	// preds is succ inverted.
	preds [][]int
	// suspendIn[s] lists the message indices of handlers containing a
	// Suspend whose sub-state is s (-1 for a DEFAULT handler), dedup'd.
	suspendIn [][]int
	// reach marks states reachable from {HomeStart, CacheStart}.
	reach []bool
	// sides classifies states by which start state reaches them.
	sides []side
	// hasResume marks states one of whose handlers contains a Resume.
	hasResume []bool
	// transitions marks states one of whose handlers contains a SetState
	// or Suspend (including self-transitions, which retry the deferred
	// queue).
	transitions []bool
	// enqueues marks states one of whose handlers contains an Enqueue.
	enqueues []bool
	// contReg is the register of each state's unique CONT parameter, or
	// NoReg for non-subroutine states.
	contReg []ir.Reg
	// policies[state][msg] classifies the (state, message) matrix.
	policies [][]policy
	// alwaysSends[func] is the set of message tags the handler sends on
	// every path from entry to a terminator of its first fragment.
	alwaysSends map[*ir.Func]tagSet
}

// tagSet is a set of message tags, one bit each.
type tagSet []uint64

func (s tagSet) has(t int) bool { return t >= 0 && t/64 < len(s) && s[t/64]&(1<<(t%64)) != 0 }

func (s tagSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func computeFacts(p *runtime.Protocol) *facts {
	irp := p.IR
	sp := irp.Sema
	n := len(sp.States)
	f := &facts{
		succ:        make([][]int, n),
		preds:       make([][]int, n),
		suspendIn:   make([][]int, n),
		reach:       make([]bool, n),
		sides:       make([]side, n),
		hasResume:   make([]bool, n),
		transitions: make([]bool, n),
		enqueues:    make([]bool, n),
		contReg:     make([]ir.Reg, n),
		policies:    make([][]policy, n),
		alwaysSends: make(map[*ir.Func]tagSet, len(irp.Funcs)),
	}
	if sp.AST != nil && sp.AST.File != nil {
		f.file = sp.AST.File.Name
	}

	// State graph: the transitions the DOT backend draws (dot.StateIsSet),
	// transient states included.
	for _, fn := range irp.Funcs {
		for i := range fn.Code {
			if fn.Code[i].Op != ir.OpMakeState || !dot.StateIsSet(fn, i) {
				continue
			}
			if from, to := fn.StateIndex, fn.Code[i].Idx; from != to {
				f.succ[from] = appendUnique(f.succ[from], to)
				f.preds[to] = appendUnique(f.preds[to], from)
			}
		}
	}

	// Sides and reachability.
	markSide := func(start int, s side) {
		if start < 0 || start >= n {
			return
		}
		seen := make([]bool, n)
		stack := []int{start}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[i] {
				continue
			}
			seen[i] = true
			f.reach[i] = true
			switch {
			case f.sides[i] == sideNone:
				f.sides[i] = s
			case f.sides[i] != s:
				f.sides[i] = sideBoth
			}
			stack = append(stack, f.succ[i]...)
		}
	}
	markSide(p.HomeStart, sideHome)
	markSide(p.CacheStart, sideCache)

	// Per-state instruction facts.
	for si, st := range sp.States {
		f.contReg[si] = ir.Reg(st.ContParam())
	}
	flow := sendFlow{words: (len(sp.Messages) + 63) / 64}
	sends := make(tagSet, len(irp.Funcs)*flow.words)
	for _, fn := range irp.Funcs {
		si := fn.StateIndex
		for i := range fn.Code {
			in := &fn.Code[i]
			switch in.Op {
			case ir.OpResume:
				f.hasResume[si] = true
			case ir.OpSuspend:
				f.transitions[si] = true
				if tgt := suspendSubState(fn, i); tgt >= 0 && tgt < n {
					f.suspendIn[tgt] = appendUnique(f.suspendIn[tgt], fn.MsgIndex)
				}
			case ir.OpCall:
				switch in.Fn.Builtin {
				case sema.BSetState:
					f.transitions[si] = true
				case sema.BEnqueue:
					f.enqueues[si] = true
				}
			}
		}
		f.alwaysSends[fn] = flow.alwaysSends(fn, sends[:flow.words:flow.words])
		sends = sends[flow.words:]
	}

	// Policy matrix.
	for si := range sp.States {
		row := make([]policy, len(sp.Messages))
		def := polMissing
		if d := irp.Defaults[si]; d != nil {
			def = classifyDefault(d)
		}
		for mi := range sp.Messages {
			if irp.HandlerFunc[si][mi] != nil {
				row[mi] = polExplicit
			} else {
				row[mi] = def
			}
		}
		f.policies[si] = row
	}
	return f
}

// suspendSubState resolves the sub-state entered by the Suspend at index
// i: the nearest preceding MakeState defining the suspend's state operand.
// Returns -1 when the operand is not a constant state (e.g. a parameter).
func suspendSubState(fn *ir.Func, i int) int {
	st := fn.Code[i].A
	for j := i - 1; j >= 0; j-- {
		in := &fn.Code[j]
		if in.Def() != st {
			continue
		}
		if in.Op == ir.OpMakeState {
			return in.Idx
		}
		return -1
	}
	return -1
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// classifyDefault inspects a DEFAULT handler's body for its policy. Enqueue
// dominates (a defer on any path can hold the message indefinitely), then
// Error, then Nack; otherwise the handler drops the message.
func classifyDefault(fn *ir.Func) policy {
	p := polDrop
	for i := range fn.Code {
		in := &fn.Code[i]
		if in.Op != ir.OpCall {
			continue
		}
		switch in.Fn.Builtin {
		case sema.BEnqueue:
			return polDefer
		case sema.BError:
			p = polReject
		case sema.BNack:
			if p == polDrop {
				p = polNack
			}
		}
	}
	return p
}

// constMsgTag resolves the message tag held by reg at any point in fn, if
// the register has exactly one definition and it is a message constant.
func constMsgTag(fn *ir.Func, reg ir.Reg) (int, bool) {
	tag, defs := -1, 0
	for i := range fn.Code {
		in := &fn.Code[i]
		if in.Def() != reg {
			continue
		}
		defs++
		if defs > 1 || in.Op != ir.OpConst || in.Kind != ir.KMsg {
			return -1, false
		}
		tag = int(in.Int)
	}
	return tag, defs == 1
}

// alwaysSends computes into dst the set of message tags fn sends on every
// path from entry to a terminator of its first atomic fragment (Return,
// Resume, or Suspend — a handler that suspends before answering has not
// answered). Forward dataflow with set intersection at joins. It returns
// dst.
func (fl *sendFlow) alwaysSends(fn *ir.Func, dst tagSet) tagSet {
	n := len(fn.Code)
	if n == 0 {
		return dst
	}
	words := fl.words
	// Set i, words words from i*words, holds the tags definitely sent before
	// executing i once reached[i] (until then it is ⊤); set n is the
	// instruction's out-set.
	sets := grow(&fl.sets, (n+1)*words)
	set := func(i int) tagSet { return sets[i*words : (i+1)*words] }
	reached := grow(&fl.reached, n)
	out := set(n)
	exitReached := false
	// meet intersects d with out, or sets it to out if it is still ⊤ (not
	// reached); it reports whether d changed.
	meet := func(d tagSet, reached *bool) bool {
		if !*reached {
			*reached = true
			copy(d, out)
			return true
		}
		changed := false
		for w := range d {
			if m := d[w] & out[w]; m != d[w] {
				d[w], changed = m, true
			}
		}
		return changed
	}
	reached[0] = true
	work := append(fl.work[:0], 0)
	var succsBuf [2]int
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := &fn.Code[i]
		copy(out, set(i))
		if in.Op == ir.OpCall && (in.Fn.Builtin == sema.BSend || in.Fn.Builtin == sema.BSendData) && len(in.Args) >= 2 {
			if tag, ok := constMsgTag(fn, in.Args[1]); ok && tag >= 0 && tag/64 < words {
				out[tag/64] |= 1 << (tag % 64)
			}
		}
		succs := succsBuf[:0]
		switch in.Op {
		case ir.OpReturn, ir.OpResume, ir.OpSuspend:
			meet(dst, &exitReached)
		case ir.OpJump:
			succs = append(succs, in.Idx)
		case ir.OpBranch:
			succs = append(succs, in.Idx, in.Idx2)
		default:
			if i+1 < n {
				succs = append(succs, i+1)
			} else {
				meet(dst, &exitReached)
			}
		}
		for _, s := range succs {
			if meet(set(s), &reached[s]) {
				work = append(work, s)
			}
		}
	}
	fl.work = work
	if !exitReached {
		clear(dst)
	}
	return dst
}

// sendFlow is alwaysSends' scratch, reused across the handlers of one
// protocol; words is the length of a tagSet.
type sendFlow struct {
	words   int
	sets    []uint64
	reached []bool
	work    []int
}

// grow returns (*buf)[:n] cleared, reallocating *buf if it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// argsContain reports whether reg appears in the instruction's Args.
func argsContain(in *ir.Instr, reg ir.Reg) bool {
	for _, a := range in.Args {
		if a == reg {
			return true
		}
	}
	return false
}
