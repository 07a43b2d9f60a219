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

	// succ is the static state graph: for each state, the dedup'd sorted
	// set of successor states over SetState and Suspend targets (extracted
	// by internal/dot, including transient states; self-loops excluded).
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
	alwaysSends map[*ir.Func]map[int]bool
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
		alwaysSends: make(map[*ir.Func]map[int]bool, len(irp.Funcs)),
	}
	if sp.AST != nil && sp.AST.File != nil {
		f.file = sp.AST.File.Name
	}

	// State graph, via the extraction the DOT backend already implements.
	m := dot.Extract(irp, dot.Options{IncludeTransient: true})
	for _, e := range m.Edges {
		from, to := sp.StateByName(e.From), sp.StateByName(e.To)
		if from == nil || to == nil || from.Index == to.Index {
			continue
		}
		f.succ[from.Index] = appendUnique(f.succ[from.Index], to.Index)
		f.preds[to.Index] = appendUnique(f.preds[to.Index], from.Index)
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
		f.alwaysSends[fn] = alwaysSends(fn)
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

// alwaysSends computes the set of message tags fn sends on every path from
// entry to a terminator of its first atomic fragment (Return, Resume, or
// Suspend — a handler that suspends before answering has not answered).
// Forward dataflow with set intersection at joins.
func alwaysSends(fn *ir.Func) map[int]bool {
	n := len(fn.Code)
	if n == 0 {
		return nil
	}
	// sent[i] is the set of tags definitely sent before executing i;
	// nil means "not yet reached" (⊤).
	sent := make([]map[int]bool, n)
	sent[0] = map[int]bool{}
	var exit map[int]bool // intersection over all exits; nil = ⊤
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := &fn.Code[i]
		out := sent[i]
		if in.Op == ir.OpCall && (in.Fn.Builtin == sema.BSend || in.Fn.Builtin == sema.BSendData) && len(in.Args) >= 2 {
			if tag, ok := constMsgTag(fn, in.Args[1]); ok {
				out = cloneSet(out)
				out[tag] = true
			}
		}
		var succs []int
		switch in.Op {
		case ir.OpReturn, ir.OpResume, ir.OpSuspend:
			exit = intersect(exit, out)
		case ir.OpJump:
			succs = []int{in.Idx}
		case ir.OpBranch:
			succs = []int{in.Idx, in.Idx2}
		default:
			if i+1 < n {
				succs = []int{i + 1}
			} else {
				exit = intersect(exit, out)
			}
		}
		for _, s := range succs {
			merged := intersect(sent[s], out)
			if sent[s] == nil || len(merged) != len(sent[s]) {
				sent[s] = merged
				work = append(work, s)
			}
		}
	}
	if exit == nil {
		return map[int]bool{}
	}
	return exit
}

func cloneSet(s map[int]bool) map[int]bool {
	c := make(map[int]bool, len(s)+1)
	for k := range s {
		c[k] = true
	}
	return c
}

// intersect meets two sets where nil is ⊤ (everything).
func intersect(a, b map[int]bool) map[int]bool {
	if a == nil {
		return cloneSet(b)
	}
	if b == nil {
		return cloneSet(a)
	}
	out := map[int]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
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
