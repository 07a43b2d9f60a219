package analysis

import (
	"teapot/internal/dot"
	"teapot/internal/ir"
	"teapot/internal/sema"
	"teapot/internal/source"
)

// Continuation-soundness checks (§5 of the paper): a subroutine state holds
// the suspended handler's continuation in its CONT parameter. Every path
// through its handlers must either keep waiting (no transition), Resume the
// continuation, or forward it into the next state's CONT slot. A path that
// transitions away while dropping the continuation leaks it: the suspended
// handler's remaining fragments never execute, which typically surfaces
// during model checking as a stalled processor that is never woken.

// runContLeak flags transitions out of a subroutine state that drop the
// continuation: a SetState/Suspend whose target-state arguments do not
// include the CONT parameter, on a path where the continuation can no
// longer be resumed or escape.
func runContLeak(c *Ctx) {
	for si, st := range c.Sema.States {
		creg := c.facts.contReg[si]
		if creg == ir.NoReg {
			continue
		}
		for _, fn := range stateFuncs(c.IR, si) {
			for i := range fn.Code {
				in := &fn.Code[i]
				if in.Op != ir.OpMakeState || in.Idx == si || !dot.StateIsSet(fn, i) {
					continue
				}
				if argsContain(in, creg) {
					continue // forwarded into the next state
				}
				if leakPath(fn, i, creg) {
					c.Reportf(source.SevWarning, instrPos(fn, i),
						"handler %s transitions %s -> %s without resuming or forwarding continuation %s: the suspended handler never completes",
						fn.Name, st.Name, c.Sema.States[in.Idx].Name, contName(st))
				}
			}
		}
	}
}

// leakPath reports whether some path from the transition at index i reaches
// the end of the handler without the continuation register being resumed or
// escaping (into a continuation record, a state constructor, or a support
// call).
func leakPath(fn *ir.Func, i int, creg ir.Reg) bool {
	seen := make([]bool, len(fn.Code))
	var succs []int
	stack := []int{i}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[j] {
			continue
		}
		seen[j] = true
		in := &fn.Code[j]
		if j != i { // the transition instruction itself was already vetted
			if in.Op == ir.OpResume {
				if in.A == creg {
					continue // this path resumes the continuation
				}
				return true // resumes a different continuation, dropping ours
			}
			if regUsed(in, creg) {
				continue // the continuation escapes; assume it is kept alive
			}
		}
		if in.Op == ir.OpReturn {
			return true // fell off the handler still holding the continuation
		}
		succs = fn.Succs(j, succs[:0])
		if len(succs) == 0 && in.Op != ir.OpResume {
			return true // suspend with no resume fragment: continuation dropped
		}
		stack = append(stack, succs...)
	}
	return false
}

// runContStuck flags subroutine states none of whose handlers can ever
// Resume the continuation or pass it onward: the continuation is captured
// at the suspend site but can never run, so the suspended handler's caller
// waits forever.
func runContStuck(c *Ctx) {
	for si, st := range c.Sema.States {
		creg := c.facts.contReg[si]
		if creg == ir.NoReg || !c.facts.reach[si] {
			continue
		}
		escapes := false
		for _, fn := range stateFuncs(c.IR, si) {
			for i := range fn.Code {
				in := &fn.Code[i]
				switch {
				case in.Op == ir.OpResume:
					escapes = true
				case in.Op == ir.OpCall && in.Fn.Builtin == sema.BNone && regUsed(in, creg):
					escapes = true // handed to a support routine
				case in.Op == ir.OpMakeState && argsContain(in, creg):
					escapes = true // forwarded to another state
				case in.Op == ir.OpMakeCont && argsContain(in, creg):
					escapes = true // saved inside a nested continuation
				}
			}
		}
		if !escapes {
			c.Reportf(source.SevWarning, c.statePos(st),
				"subroutine state %s never resumes or forwards continuation %s: suspended handlers entering it never complete",
				st.Name, contName(st))
		}
	}
}

// stateFuncs returns the state's handlers (message handlers in message
// order, then the DEFAULT), deterministically.
func stateFuncs(p *ir.Program, si int) []*ir.Func {
	var out []*ir.Func
	for _, fn := range p.HandlerFunc[si] {
		if fn != nil {
			out = append(out, fn)
		}
	}
	if p.Defaults[si] != nil {
		out = append(out, p.Defaults[si])
	}
	return out
}

// contName returns the name of the state's CONT parameter.
func contName(st *sema.StateSym) string {
	for _, prm := range st.Params {
		if prm.Type.Kind == sema.TCont {
			return prm.Name
		}
	}
	return "CONT"
}

// regUsed reports whether the instruction reads reg through any operand.
// (Raw A/B field comparison would false-match ops that leave those fields
// at their zero value, which is a real register number.)
func regUsed(in *ir.Instr, reg ir.Reg) bool {
	for _, u := range in.Uses(nil) {
		if u == reg {
			return true
		}
	}
	return false
}

// instrPos returns the instruction's position, falling back to the nearest
// preceding positioned instruction.
func instrPos(fn *ir.Func, i int) source.Pos {
	for j := i; j >= 0; j-- {
		if fn.Code[j].Pos.IsValid() {
			return fn.Code[j].Pos
		}
	}
	return source.Pos{}
}
