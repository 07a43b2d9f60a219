package sema

import (
	"teapot/internal/ast"
	"teapot/internal/token"
)

// handlerScope resolves names inside one handler. Lookup order: handler
// locals and parameters, the enclosing state's parameters (the CONT
// argument), protocol variables, protocol constants, module constants,
// builtin values, messages, routines.
type handlerScope struct {
	c  *checker
	hs *HandlerSym
	// suspendCont is the continuation bound by the enclosing Suspend
	// statement (visible only inside the suspend target expression).
	suspendCont *Symbol
	suspends    int // suspend statements checked so far
}

func (sc *handlerScope) lookup(id *ast.Ident) *Symbol {
	name := id.Name
	if sc.suspendCont != nil && sc.suspendCont.Name == name {
		return sc.suspendCont
	}
	hs := sc.hs
	for i, l := range hs.Locals {
		if l.Name == name {
			return hs.scope[i]
		}
	}
	for i, p := range hs.Params {
		if p.Name == name {
			return hs.scope[len(hs.Locals)+i]
		}
	}
	for i, p := range hs.State.Params {
		if p.Name == name {
			return hs.State.paramSyms[i]
		}
	}
	return sc.c.global[name]
}

// use records what an identifier resolved to.
func (c *checker) use(id *ast.Ident, sym *Symbol) { c.p.uses[id.Ord] = sym.ref }

func (c *checker) checkHandlerBody(hs *HandlerSym) {
	sc := &handlerScope{c: c, hs: hs}
	sc.stmts(hs.Body)
}

func (sc *handlerScope) stmts(list []ast.Stmt) {
	for _, s := range list {
		sc.stmt(s)
	}
}

func (sc *handlerScope) stmt(s ast.Stmt) {
	c := sc.c
	switch s := s.(type) {
	case *ast.IfStmt:
		sc.exprExpect(s.Cond, Bool, "if condition")
		sc.stmts(s.Then)
		sc.stmts(s.Else)
	case *ast.WhileStmt:
		sc.exprExpect(s.Cond, Bool, "while condition")
		sc.stmts(s.Body)
	case *ast.CallStmt:
		sc.call(s.Call, true)
	case *ast.AssignStmt:
		sym := sc.lookup(s.LHS)
		if sym == nil {
			c.errorf(s.LHS.Pos(), "undefined: %s", s.LHS.Name)
			return
		}
		c.use(s.LHS, sym)
		switch sym.Kind {
		case SymLocal, SymParam, SymProtVar:
			// assignable
		default:
			c.errorf(s.LHS.Pos(), "cannot assign to %s", s.LHS.Name)
			return
		}
		t := sc.expr(s.RHS)
		if !t.Same(sym.Type) && t.Kind != TInvalid && sym.Type.Kind != TInvalid {
			c.errorf(s.LHS.Pos(), "cannot assign %s to %s (type %s)", t, s.LHS.Name, sym.Type)
		}
	case *ast.SuspendStmt:
		hs := sc.hs
		contSym := hs.scope[len(hs.Locals)+len(hs.Params)+sc.suspends]
		sc.suspends++
		target := c.p.stateByName[s.Target.Name.Name]
		if target == nil {
			c.errorf(s.Target.Pos(), "suspend target %q is not a state", s.Target.Name.Name)
			return
		}
		c.use(s.Target.Name, target.sym)
		if !target.IsSubroutine() {
			c.errorf(s.Target.Pos(), "suspend target state %q has no CONT parameter", target.Name)
		}
		// The continuation variable is in scope only within the target's
		// argument list.
		if prev := sc.lookup(s.Cont); prev != nil {
			c.errorf(s.Cont.Pos(), "continuation name %q shadows an existing name", s.Cont.Name)
		}
		contSym.Name, contSym.Type = s.Cont.Name, Cont
		c.use(s.Cont, contSym)
		outer := sc.suspendCont
		sc.suspendCont = contSym
		used := sc.stateArgs(s.Target, target)
		sc.suspendCont = outer
		if !used {
			c.errorf(s.SuspendPos, "continuation %q is not passed to state %q (it could never be resumed)",
				s.Cont.Name, target.Name)
		}
	case *ast.ResumeStmt:
		sc.exprExpect(s.Cont, Cont, "resume argument")
	case *ast.ReturnStmt:
		if s.Value != nil {
			c.errorf(s.Pos(), "handlers do not return values")
			sc.expr(s.Value)
		}
	case *ast.PrintStmt:
		for _, a := range s.Args {
			sc.expr(a)
		}
	}
}

// stateArgs type-checks a state constructor's arguments against the state's
// parameters and reports whether the current suspend continuation (if any)
// was mentioned.
func (sc *handlerScope) stateArgs(se *ast.StateExpr, st *StateSym) bool {
	c := sc.c
	if len(se.Args) != len(st.Params) {
		c.errorf(se.Pos(), "state %s takes %d arguments, got %d", st.Name, len(st.Params), len(se.Args))
	}
	contUsed := false
	for i, a := range se.Args {
		t := sc.expr(a)
		if i < len(st.Params) && !t.Same(st.Params[i].Type) && t.Kind != TInvalid {
			c.errorf(a.Pos(), "state %s argument %d has type %s, want %s", st.Name, i+1, t, st.Params[i].Type)
		}
		ast.WalkExprs(a, func(e ast.Expr) {
			if n, ok := e.(*ast.Name); ok && sc.suspendCont != nil && n.Ident.Name == sc.suspendCont.Name {
				contUsed = true
			}
		})
	}
	return contUsed
}

func (sc *handlerScope) exprExpect(e ast.Expr, want Type, what string) {
	t := sc.expr(e)
	if !t.Same(want) && t.Kind != TInvalid {
		sc.c.errorf(e.Pos(), "%s must have type %s, got %s", what, want, t)
	}
}

// expr type-checks an expression and returns its type.
func (sc *handlerScope) expr(e ast.Expr) Type {
	c := sc.c
	switch e := e.(type) {
	case *ast.IntLit:
		return Int
	case *ast.BoolLit:
		return Bool
	case *ast.StringLit:
		return String
	case *ast.Name:
		sym := sc.lookup(e.Ident)
		if sym == nil {
			c.errorf(e.Pos(), "undefined: %s", e.Ident.Name)
			return Invalid
		}
		c.use(e.Ident, sym)
		if sym.Kind == SymFunc {
			c.errorf(e.Pos(), "routine %s used as a value", e.Ident.Name)
			return Invalid
		}
		return sym.Type
	case *ast.CallExpr:
		return sc.call(e, false)
	case *ast.StateExpr:
		st := c.p.stateByName[e.Name.Name]
		if st == nil {
			c.errorf(e.Pos(), "unknown state %q", e.Name.Name)
			return Invalid
		}
		c.use(e.Name, st.sym)
		sc.stateArgs(e, st)
		return State
	case *ast.BinExpr:
		return sc.binary(e)
	case *ast.UnExpr:
		t := sc.expr(e.X)
		switch e.Op {
		case token.KWNOT, token.NOT:
			if !t.Same(Bool) && t.Kind != TInvalid {
				c.errorf(e.Pos(), "operand of not must be bool, got %s", t)
			}
			return Bool
		case token.MINUS:
			if !t.Same(Int) && t.Kind != TInvalid {
				c.errorf(e.Pos(), "operand of unary - must be int, got %s", t)
			}
			return Int
		}
		return Invalid
	case *ast.ParenExpr:
		return sc.expr(e.X)
	}
	return Invalid
}

func (sc *handlerScope) binary(e *ast.BinExpr) Type {
	c := sc.c
	xt := sc.expr(e.X)
	yt := sc.expr(e.Y)
	bad := xt.Kind == TInvalid || yt.Kind == TInvalid
	switch e.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if !bad && (!xt.Same(Int) || !yt.Same(Int)) {
			c.errorf(e.OpPos, "arithmetic requires int operands, got %s and %s", xt, yt)
		}
		return Int
	case token.EQ, token.NEQ:
		if !bad && !xt.Same(yt) {
			c.errorf(e.OpPos, "comparison of mismatched types %s and %s", xt, yt)
		}
		if !bad && !xt.Scalar() && xt.Kind != TState && xt.Kind != TAbstract {
			c.errorf(e.OpPos, "type %s is not comparable", xt)
		}
		return Bool
	case token.LT, token.LE, token.GT, token.GE:
		// Ints order naturally; NODE/NODE and ID/ID order by identity (the
		// symmetry prover refutes equivariance for protocols that do this,
		// so the model checker's scalarset reduction stays sound).
		ordered := (xt.Same(Int) && yt.Same(Int)) ||
			(xt.Same(yt) && (xt.Kind == TNode || xt.Kind == TID))
		if !bad && !ordered {
			c.errorf(e.OpPos, "ordering requires int operands (or two NODEs, or two IDs), got %s and %s", xt, yt)
		}
		return Bool
	case token.AND, token.KWAND, token.OR, token.KWOR:
		if !bad && (!xt.Same(Bool) || !yt.Same(Bool)) {
			c.errorf(e.OpPos, "logical operator requires bool operands, got %s and %s", xt, yt)
		}
		return Bool
	}
	c.errorf(e.OpPos, "unknown operator")
	return Invalid
}

// call type-checks a routine application. asStmt permits discarding a
// function result.
func (sc *handlerScope) call(e *ast.CallExpr, asStmt bool) Type {
	c := sc.c
	f, ok := c.p.Funcs[e.Func.Name]
	if !ok {
		c.errorf(e.Func.Pos(), "unknown routine %q", e.Func.Name)
		for _, a := range e.Args {
			sc.expr(a)
		}
		return Invalid
	}
	c.use(e.Func, f.sym)
	if !asStmt && f.Sig.Result.Kind == TInvalid {
		c.errorf(e.Pos(), "procedure %s used in an expression", f.Name)
	}
	sig := f.Sig
	if len(e.Args) < sig.NumFixed() || (!sig.Variadic && len(e.Args) > sig.NumFixed()) {
		c.errorf(e.Pos(), "%s expects %s, got %d arguments", f.Name, sig, len(e.Args))
	}
	base := len(c.types)
	for i, a := range e.Args {
		t := sc.expr(a)
		c.types = append(c.types, t)
		if i < sig.NumFixed() {
			want := sig.Params[i]
			if !t.Same(want) && t.Kind != TInvalid && want.Kind != TInvalid {
				c.errorf(a.Pos(), "%s argument %d has type %s, want %s", f.Name, i+1, t, want)
			}
			if sig.ByRef[i] {
				if _, isName := a.(*ast.Name); !isName {
					c.errorf(a.Pos(), "%s argument %d must be a variable (var parameter)", f.Name, i+1)
				}
			}
		}
	}
	// Send/SendData payload checking: if the tag is a literal message name,
	// the trailing arguments must match the message's inferred payload.
	if (f.Builtin == BSend || f.Builtin == BSendData) && len(e.Args) >= 3 {
		if n, ok := e.Args[1].(*ast.Name); ok {
			if m := c.p.msgByName[n.Ident.Name]; m != nil && m.Payload != nil {
				payload := c.types[base+3:]
				if len(payload) != len(m.Payload) {
					c.errorf(e.Pos(), "%s of %s carries %d payload values, handlers declare %d",
						f.Name, m.Name, len(payload), len(m.Payload))
				} else {
					for i := range payload {
						if !payload[i].Same(m.Payload[i]) && payload[i].Kind != TInvalid {
							c.errorf(e.Args[3+i].Pos(), "%s payload %d has type %s, handlers declare %s",
								m.Name, i+1, payload[i], m.Payload[i])
						}
					}
				}
			}
		}
	}
	c.types = c.types[:base]
	return sig.Result
}
