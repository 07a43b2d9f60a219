package analysis

import (
	"fmt"

	"teapot/internal/ir"
	"teapot/internal/liveness"
	"teapot/internal/source"
)

// IR hygiene checks, built on internal/liveness: dead computations and
// reads of registers no path ever writes. Both usually indicate a protocol
// source bug (an assignment whose value is never consulted, a local read
// before it is set) that the compiler silently tolerates.

// pureOps are the instructions with no side effect beyond their register
// result: if the result is dead, the instruction is useless.
var pureOps = map[ir.Op]bool{
	ir.OpConst:      true,
	ir.OpConstStr:   true,
	ir.OpMove:       true,
	ir.OpBin:        true,
	ir.OpUn:         true,
	ir.OpLoadVar:    true,
	ir.OpModConst:   true,
	ir.OpBuiltinVal: true,
	ir.OpMakeState:  true,
	ir.OpMakeCont:   true,
}

// runDeadStore flags pure instructions whose destination register is dead
// immediately after the instruction (not live into any successor).
func runDeadStore(c *Ctx) {
	var live liveness.Result // one handler's live sets at a time
	for _, fn := range c.IR.Funcs {
		if len(fn.Code) == 0 {
			continue
		}
		live.Analyze(fn)
		var succs []int
		for i := range fn.Code {
			in := &fn.Code[i]
			if !pureOps[in.Op] || in.Dst == ir.NoReg {
				continue
			}
			dead := true
			succs = fn.Succs(i, succs[:0])
			for _, s := range succs {
				if live.LiveAt(s).Has(in.Dst) {
					dead = false
					break
				}
			}
			if dead {
				c.Reportf(source.SevWarning, instrPos(fn, i),
					"handler %s computes a value (%s) that is never used",
					fn.Name, in.String())
			}
		}
	}
}

// runUnassigned flags registers a handler reads that no instruction and no
// parameter slot ever writes. The VM hands such reads the zero value, which
// almost always means a local was consulted before its first assignment.
func runUnassigned(c *Ctx) {
	for _, fn := range c.IR.Funcs {
		defined := make([]bool, fn.NumRegs)
		for r := 0; r < fn.NumStateParams+fn.NumParams && r < fn.NumRegs; r++ {
			defined[r] = true
		}
		for i := range fn.Code {
			if d := fn.Code[i].Def(); d != ir.NoReg && int(d) < len(defined) {
				defined[d] = true
			}
		}
		var uses []ir.Reg
		reported := make(map[ir.Reg]bool)
		for i := range fn.Code {
			in := &fn.Code[i]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if u == ir.NoReg || int(u) >= len(defined) || defined[u] || reported[u] {
					continue
				}
				reported[u] = true
				c.Reportf(source.SevWarning, instrPos(fn, i),
					"handler %s reads %s, which no path ever writes (it is always the zero value)",
					fn.Name, regName(fn, c, u))
			}
		}
	}
}

// regName renders a register with its source-level name when it maps to a
// declared local.
func regName(fn *ir.Func, c *Ctx, r ir.Reg) string {
	li := int(r) - fn.NumStateParams - fn.NumParams
	if li >= 0 {
		for _, st := range c.Sema.States {
			if st.Index != fn.StateIndex {
				continue
			}
			for _, h := range st.Handlers {
				if (h.Msg == nil && fn.MsgIndex < 0) || (h.Msg != nil && h.Msg.Index == fn.MsgIndex) {
					if li < len(h.Locals) {
						return "local " + h.Locals[li].Name
					}
				}
			}
		}
	}
	return fmt.Sprintf("r%d", int(r))
}
