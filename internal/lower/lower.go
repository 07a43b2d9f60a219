// Package lower translates checked Teapot handlers into the register IR.
//
// Suspend statements become fragment boundaries: an OpMakeCont capturing the
// (not-yet-computed) live set, the evaluation of the target subroutine
// state's arguments, and an OpSuspend terminating the fragment. The saved
// register sets are filled in afterwards by the continuation pass
// (internal/cont), which runs liveness analysis first.
package lower

import (
	"fmt"

	"teapot/internal/ast"
	"teapot/internal/ir"
	"teapot/internal/sema"
	"teapot/internal/token"
)

// Lower compiles every handler of a checked program. It panics on internal
// inconsistencies (sema guarantees well-formedness).
//
// The handlers of one call share the builder's scratch: each is built in
// it and copied out at its final length, so every Func's Code, Frags and
// instruction operands are allocated once, at their exact size.
func Lower(sp *sema.Program) *ir.Program {
	handlers, sites := 0, 0
	for _, st := range sp.States {
		handlers += len(st.Handlers)
		for _, h := range st.Handlers {
			sites += h.Suspends
		}
	}
	msgs := len(sp.Messages)
	p := &ir.Program{
		Sema:        sp,
		Funcs:       make([]*ir.Func, 0, handlers),
		HandlerFunc: make([][]*ir.Func, len(sp.States)),
		Defaults:    make([]*ir.Func, len(sp.States)),
		Sites:       make([]*ir.SuspendSite, 0, sites),
	}
	funcs := make([]ir.Func, handlers)
	cells := make([]*ir.Func, len(sp.States)*msgs)
	b := &builder{p: p, sp: sp, refs: make(map[string]*ir.FuncRef, len(sp.Funcs))}
	for si, st := range sp.States {
		p.HandlerFunc[si] = cells[si*msgs : (si+1)*msgs : (si+1)*msgs]
		for _, h := range st.Handlers {
			f := &funcs[len(p.Funcs)]
			b.handler(f, st, h)
			p.Funcs = append(p.Funcs, f)
			if h.Msg != nil {
				p.HandlerFunc[si][h.Msg.Index] = f
			} else {
				p.Defaults[si] = f
			}
		}
	}
	p.Link()
	return p
}

type builder struct {
	p    *ir.Program
	sp   *sema.Program
	f    *ir.Func
	next ir.Reg

	contName string // continuation bound by the innermost Suspend target
	contReg  ir.Reg

	// Scratch reused by every handler of one Lower call.
	code  []ir.Instr // the handler's instructions
	frags []ir.Fragment
	regs  []ir.Reg // operands evaluated but not yet emitted, innermost last
	args  []ir.Reg // the Args of code's instructions
	refs  map[string]*ir.FuncRef
}

// handler lowers one handler into f.
func (b *builder) handler(f *ir.Func, st *sema.StateSym, hs *sema.HandlerSym) {
	*f = ir.Func{
		Name:           st.Name + "." + hs.Name(),
		StateIndex:     st.Index,
		MsgIndex:       -1,
		NumStateParams: len(st.Params),
		NumParams:      len(hs.Params),
		NumLocals:      len(hs.Locals),
	}
	if hs.Msg != nil {
		f.MsgIndex = hs.Msg.Index
	}
	b.f = f
	b.next = ir.Reg(f.NumStateParams + f.NumParams + f.NumLocals)
	b.code, b.args = b.code[:0], b.args[:0]
	b.frags = append(b.frags[:0], ir.Fragment{Start: 0, Site: -1})
	b.stmts(hs.Body)
	// Always end with an explicit Return: a trailing Suspend leaves an
	// empty final fragment that needs a landing point, and a trailing
	// while-loop's exit branch targets the instruction after the body.
	b.emit(ir.Instr{Op: ir.OpReturn})
	f.NumRegs = int(b.next)

	f.Code = make([]ir.Instr, len(b.code))
	copy(f.Code, b.code)
	f.Frags = make([]ir.Fragment, len(b.frags))
	copy(f.Frags, b.frags)
	if len(b.args) > 0 {
		args := make([]ir.Reg, len(b.args))
		for i := range f.Code {
			in := &f.Code[i]
			if n := len(in.Args); n > 0 {
				copy(args, in.Args)
				in.Args, args = args[:n:n], args[n:]
			}
		}
	}
}

func (b *builder) emit(in ir.Instr) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// exprs evaluates es in order and returns their registers as an
// instruction's Args (nil if there are none), a slice of the scratch until
// the handler is copied out.
func (b *builder) exprs(es []ast.Expr) []ir.Reg {
	if len(es) == 0 {
		return nil
	}
	base := len(b.regs)
	for _, e := range es {
		r := b.expr(e) // may push and pop operands of its own
		b.regs = append(b.regs, r)
	}
	start := len(b.args)
	b.args = append(b.args, b.regs[base:]...)
	b.regs = b.regs[:base]
	return b.args[start:len(b.args):len(b.args)]
}

func (b *builder) newReg() ir.Reg {
	r := b.next
	b.next++
	return r
}

func (b *builder) here() int { return len(b.code) }

func (b *builder) sym(id *ast.Ident) *sema.Symbol {
	s := b.sp.Use(id)
	if s == nil {
		panic(fmt.Sprintf("lower: unresolved identifier %q at %s", id.Name, id.Pos()))
	}
	return s
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.IfStmt:
		cond := b.expr(s.Cond)
		br := b.emit(ir.Instr{Op: ir.OpBranch, A: cond, Pos: s.IfPos})
		b.code[br].Idx = b.here()
		b.stmts(s.Then)
		if len(s.Else) == 0 {
			b.code[br].Idx2 = b.here()
			return
		}
		jmp := b.emit(ir.Instr{Op: ir.OpJump})
		b.code[br].Idx2 = b.here()
		b.stmts(s.Else)
		b.code[jmp].Idx = b.here()
	case *ast.WhileStmt:
		head := b.here()
		cond := b.expr(s.Cond)
		br := b.emit(ir.Instr{Op: ir.OpBranch, A: cond, Pos: s.WhilePos})
		b.code[br].Idx = b.here()
		b.stmts(s.Body)
		b.emit(ir.Instr{Op: ir.OpJump, Idx: head})
		b.code[br].Idx2 = b.here()
	case *ast.CallStmt:
		b.call(s.Call, true)
	case *ast.AssignStmt:
		sym := b.sym(s.LHS)
		switch sym.Kind {
		case sema.SymLocal:
			val := b.expr(s.RHS)
			b.emit(ir.Instr{Op: ir.OpMove, Dst: b.f.LocalReg(sym.Index), A: val, Pos: s.Pos()})
		case sema.SymParam:
			val := b.expr(s.RHS)
			b.emit(ir.Instr{Op: ir.OpMove, Dst: b.f.ParamReg(sym.Index), A: val, Pos: s.Pos()})
		case sema.SymProtVar:
			val := b.expr(s.RHS)
			b.emit(ir.Instr{Op: ir.OpStoreVar, Idx: sym.Index, A: val, Pos: s.Pos()})
		default:
			panic("lower: bad assignment target kind")
		}
	case *ast.SuspendStmt:
		b.suspend(s)
	case *ast.ResumeStmt:
		c := b.expr(s.Cont)
		b.emit(ir.Instr{Op: ir.OpResume, A: c, Idx: -1, Pos: s.ResumePos})
	case *ast.ReturnStmt:
		b.emit(ir.Instr{Op: ir.OpReturn, Pos: s.ReturnPos})
	case *ast.PrintStmt:
		b.emit(ir.Instr{Op: ir.OpPrint, Dst: ir.NoReg, Args: b.exprs(s.Args), Pos: s.PrintPos})
	default:
		panic(fmt.Sprintf("lower: unknown statement %T", s))
	}
}

func (b *builder) suspend(s *ast.SuspendStmt) {
	target := b.sp.StateByName(s.Target.Name.Name)
	fragIdx := len(b.frags)
	site := &ir.SuspendSite{
		ID:          len(b.p.Sites),
		Func:        b.f,
		FragIdx:     fragIdx,
		TargetState: target.Index,
	}
	b.p.Sites = append(b.p.Sites, site)

	contReg := b.newReg()
	b.emit(ir.Instr{Op: ir.OpMakeCont, Dst: contReg, Idx: fragIdx, Pos: s.SuspendPos})

	// Bind the continuation name while evaluating the target's arguments.
	prevName, prevReg := b.contName, b.contReg
	b.contName, b.contReg = s.Cont.Name, contReg
	args := b.exprs(s.Target.Args)
	b.contName, b.contReg = prevName, prevReg

	sv := b.newReg()
	b.emit(ir.Instr{Op: ir.OpMakeState, Dst: sv, Idx: target.Index, Args: args, Pos: s.Target.Pos()})
	b.emit(ir.Instr{Op: ir.OpSuspend, A: sv, Dst: ir.NoReg, Pos: s.SuspendPos})
	b.frags = append(b.frags, ir.Fragment{Start: b.here(), Site: site.ID})
}

func (b *builder) expr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpConst, Dst: r, Int: e.Value, Kind: ir.KInt, Pos: e.Pos()})
		return r
	case *ast.BoolLit:
		r := b.newReg()
		v := int64(0)
		if e.Value {
			v = 1
		}
		b.emit(ir.Instr{Op: ir.OpConst, Dst: r, Int: v, Kind: ir.KBool, Pos: e.Pos()})
		return r
	case *ast.StringLit:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpConstStr, Dst: r, Str: e.Value, Pos: e.Pos()})
		return r
	case *ast.Name:
		return b.name(e.Ident)
	case *ast.CallExpr:
		return b.call(e, false)
	case *ast.StateExpr:
		st := b.sp.StateByName(e.Name.Name)
		args := b.exprs(e.Args)
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpMakeState, Dst: r, Idx: st.Index, Args: args, Pos: e.Pos()})
		return r
	case *ast.BinExpr:
		x := b.expr(e.X)
		y := b.expr(e.Y)
		r := b.newReg()
		op := e.Op
		switch op {
		case token.KWAND:
			op = token.AND
		case token.KWOR:
			op = token.OR
		}
		b.emit(ir.Instr{Op: ir.OpBin, Dst: r, A: x, B: y, Tok: op, Pos: e.OpPos})
		return r
	case *ast.UnExpr:
		x := b.expr(e.X)
		r := b.newReg()
		op := e.Op
		if op == token.NOT {
			op = token.KWNOT
		}
		b.emit(ir.Instr{Op: ir.OpUn, Dst: r, A: x, Tok: op, Pos: e.OpPos})
		return r
	case *ast.ParenExpr:
		return b.expr(e.X)
	}
	panic(fmt.Sprintf("lower: unknown expression %T", e))
}

func (b *builder) name(id *ast.Ident) ir.Reg {
	sym := b.sym(id)
	switch sym.Kind {
	case sema.SymLocal:
		return b.f.LocalReg(sym.Index)
	case sema.SymParam:
		return b.f.ParamReg(sym.Index)
	case sema.SymStateParam:
		return b.f.StateParamReg(sym.Index)
	case sema.SymSuspendCont:
		if id.Name != b.contName {
			panic("lower: continuation name out of scope")
		}
		return b.contReg
	case sema.SymProtVar:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpLoadVar, Dst: r, Idx: sym.Index, Pos: id.Pos()})
		return r
	case sema.SymConst:
		r := b.newReg()
		cv := sym.Const
		if cv.Type.Same(sema.String) {
			b.emit(ir.Instr{Op: ir.OpConstStr, Dst: r, Str: cv.Str, Pos: id.Pos()})
			return r
		}
		kind := ir.KInt
		switch cv.Type.Kind {
		case sema.TBool:
			kind = ir.KBool
		case sema.TAccess:
			kind = ir.KAccess
		}
		b.emit(ir.Instr{Op: ir.OpConst, Dst: r, Int: cv.Int, Kind: kind, Pos: id.Pos()})
		return r
	case sema.SymModConst:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpModConst, Dst: r, Idx: sym.Index, Pos: id.Pos()})
		return r
	case sema.SymBuiltinVal:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpBuiltinVal, Dst: r, Idx: sym.Index, Pos: id.Pos()})
		return r
	case sema.SymMessage:
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpConst, Dst: r, Int: int64(sym.Index), Kind: ir.KMsg, Pos: id.Pos()})
		return r
	case sema.SymState:
		// Bare state name as a value: a state constructor with no args.
		r := b.newReg()
		b.emit(ir.Instr{Op: ir.OpMakeState, Dst: r, Idx: sym.Index, Pos: id.Pos()})
		return r
	}
	panic(fmt.Sprintf("lower: unhandled symbol kind %d for %q", sym.Kind, id.Name))
}

// call lowers a routine application. Enqueue's arguments are not evaluated:
// the builtin re-queues the *current* message regardless of what the paper's
// convention passes. Calls of one routine share one FuncRef.
func (b *builder) call(e *ast.CallExpr, asStmt bool) ir.Reg {
	fsym := b.sp.Funcs[e.Func.Name]
	ref := b.refs[fsym.Name]
	if ref == nil {
		ref = &ir.FuncRef{Name: fsym.Name, Builtin: fsym.Builtin, Sig: fsym.Sig}
		b.refs[fsym.Name] = ref
	}
	var args []ir.Reg
	if fsym.Builtin != sema.BEnqueue {
		args = b.exprs(e.Args)
	}
	dst := ir.NoReg
	if fsym.Sig.Result.Kind != sema.TInvalid && !asStmt {
		dst = b.newReg()
	}
	b.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Fn: ref, Args: args, Pos: e.Pos()})
	// A protocol variable passed to a var parameter lives in the block's
	// info record, not a register: store the (possibly mutated) value back
	// after the call. Registers themselves are passed by reference to the
	// callee, and abstract types have reference semantics, so only this
	// case needs a writeback.
	for i, r := range args {
		if i < len(fsym.Sig.Params) && fsym.Sig.ByRef[i] {
			if n, ok := e.Args[i].(*ast.Name); ok {
				if sym := b.sym(n.Ident); sym.Kind == sema.SymProtVar {
					b.emit(ir.Instr{Op: ir.OpStoreVar, Idx: sym.Index, A: r, Pos: e.Pos()})
				}
			}
		}
	}
	return dst
}
