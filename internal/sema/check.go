package sema

import (
	"teapot/internal/ast"
	"teapot/internal/source"
	"teapot/internal/token"
)

// Check performs semantic analysis on a parsed program. On error it returns
// a partial Program and the accumulated diagnostics.
func Check(prog *ast.Program) (*Program, error) {
	c := &checker{
		p: &Program{
			AST:         prog,
			Types:       make(map[string]Type),
			Consts:      make(map[string]*ConstVal),
			Funcs:       make(map[string]*FuncSym),
			msgByName:   make(map[string]*Message),
			stateByName: make(map[string]*StateSym),
			uses:        make([]symRef, prog.Idents),
		},
	}
	if prog.File != nil {
		c.fname = prog.File.Name
	}
	for name, t := range builtinTypes {
		c.p.Types[name] = t
	}
	builtins := make([]FuncSym, len(builtinFuncs))
	for i, f := range builtinFuncs {
		builtins[i] = *f
		c.p.Funcs[f.Name] = &builtins[i]
	}
	c.collectModules(prog.Modules)
	if prog.Protocol != nil {
		c.collectProtocol(prog.Protocol)
	} else {
		c.errs.Add(c.fname, source.Pos{}, "missing protocol declaration")
	}
	c.collectStates(prog.States)
	// Two passes: handler signatures first (they fix message payload
	// types), then bodies (whose Send sites are checked against payloads).
	for _, s := range c.p.States {
		c.collectHandlers(s)
	}
	c.declare()
	for _, s := range c.p.States {
		for _, h := range s.Handlers {
			c.checkHandlerBody(h)
		}
	}
	c.errs.Sort()
	return c.p, c.errs.Err()
}

type checker struct {
	p     *Program
	fname string
	errs  source.ErrorList

	// global maps each name a handler can see outside its own scope to
	// the Symbol it resolves to (see handlerScope for the order).
	global map[string]*Symbol
	// types holds the argument types of the calls being checked,
	// innermost last.
	types []Type
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Add(c.fname, pos, format, args...)
}

func (c *checker) lookupType(id *ast.Ident) Type {
	if t, ok := c.p.Types[id.Name]; ok {
		return t
	}
	c.errorf(id.Pos(), "unknown type %q", id.Name)
	return Invalid
}

func (c *checker) collectModules(mods []*ast.Module) {
	for _, m := range mods {
		for _, d := range m.Decls {
			switch d := d.(type) {
			case *ast.TypeDecl:
				if _, exists := c.p.Types[d.Name.Name]; exists {
					c.errorf(d.Pos(), "type %q redeclared", d.Name.Name)
					continue
				}
				c.p.Types[d.Name.Name] = Abstract(d.Name.Name)
			case *ast.ModConstDecl:
				t := c.lookupType(d.Type)
				v := &VarSym{Name: d.Name.Name, Type: t, Index: len(c.p.ModConsts)}
				c.p.ModConsts = append(c.p.ModConsts, v)
			case *ast.SubDecl:
				s := &Sig{}
				for _, g := range d.Params {
					t := c.lookupType(g.Type)
					for range g.Names {
						s.Params = append(s.Params, t)
						s.ByRef = append(s.ByRef, g.ByRef)
					}
				}
				s.Result = Invalid
				if d.Result != nil {
					s.Result = c.lookupType(d.Result)
				}
				if prev, exists := c.p.Funcs[d.Name.Name]; exists && prev.Builtin != BNone {
					// A module may re-declare a builtin (the paper's modules
					// declare Send, SetState, etc. as prototypes); the
					// builtin semantics win.
					continue
				} else if exists {
					c.errorf(d.Pos(), "routine %q redeclared", d.Name.Name)
					continue
				}
				c.p.Funcs[d.Name.Name] = &FuncSym{Name: d.Name.Name, Sig: s}
			}
		}
	}
}

func (c *checker) collectProtocol(pr *ast.Protocol) {
	c.p.ProtoName = pr.Name.Name
	for _, d := range pr.Decls {
		switch d := d.(type) {
		case *ast.ProtVarDecl:
			t := c.lookupType(d.Type)
			if !t.Scalar() && t.Kind != TAbstract && t.Kind != TState && t.Kind != TCont {
				c.errorf(d.Pos(), "protocol variable %q has unsupported type %s", d.Name.Name, t)
			}
			if c.findProtVar(d.Name.Name) != nil {
				c.errorf(d.Pos(), "protocol variable %q redeclared", d.Name.Name)
				continue
			}
			c.p.ProtVars = append(c.p.ProtVars, &VarSym{Name: d.Name.Name, Type: t, Index: len(c.p.ProtVars)})
		case *ast.ProtConstDecl:
			cv := c.constExpr(d.Value)
			if cv == nil {
				continue
			}
			if _, exists := c.p.Consts[d.Name.Name]; exists {
				c.errorf(d.Pos(), "constant %q redeclared", d.Name.Name)
				continue
			}
			c.p.Consts[d.Name.Name] = cv
		case *ast.StateDecl:
			if c.p.stateByName[d.Name.Name] != nil {
				c.errorf(d.Pos(), "state %q redeclared", d.Name.Name)
				continue
			}
			st := &StateSym{
				Name:      d.Name.Name,
				Index:     len(c.p.States),
				Transient: d.Transient,
			}
			st.Params = c.params(d.Params, true)
			c.p.States = append(c.p.States, st)
			c.p.stateByName[st.Name] = st
		case *ast.MessageDecl:
			if c.p.msgByName[d.Name.Name] != nil {
				c.errorf(d.Pos(), "message %q redeclared", d.Name.Name)
				continue
			}
			m := &Message{Name: d.Name.Name, Index: len(c.p.Messages), Decl: d}
			c.p.Messages = append(c.p.Messages, m)
			c.p.msgByName[m.Name] = m
		}
	}
}

func (c *checker) findProtVar(name string) *VarSym {
	for _, v := range c.p.ProtVars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// constExpr evaluates a protocol constant initializer.
func (c *checker) constExpr(e ast.Expr) *ConstVal {
	switch e := e.(type) {
	case *ast.IntLit:
		return &ConstVal{Type: Int, Int: e.Value}
	case *ast.BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		return &ConstVal{Type: Bool, Int: v}
	case *ast.StringLit:
		return &ConstVal{Type: String, Str: e.Value}
	case *ast.Name:
		if cv, ok := c.p.Consts[e.Ident.Name]; ok {
			return cv
		}
		c.errorf(e.Pos(), "constant initializer references unknown constant %q", e.Ident.Name)
		return nil
	case *ast.UnExpr:
		if e.Op == token.MINUS {
			if cv := c.constExpr(e.X); cv != nil && cv.Type.Same(Int) {
				return &ConstVal{Type: Int, Int: -cv.Int}
			}
		}
	}
	c.errorf(e.Pos(), "constant initializer must be a literal or constant name")
	return nil
}

func (c *checker) collectStates(states []*ast.State) {
	for _, s := range states {
		st := c.p.stateByName[s.Name.Name]
		if st == nil {
			// Body without a forward declaration: declare implicitly.
			st = &StateSym{
				Name:  s.Name.Name,
				Index: len(c.p.States),
			}
			st.Params = c.params(s.Params, true)
			c.p.States = append(c.p.States, st)
			c.p.stateByName[st.Name] = st
		} else if st.Body != nil {
			c.errorf(s.Pos(), "state %q defined twice", s.Name.Name)
			continue
		} else {
			// Body must agree with the forward declaration.
			bodyParams := c.params(s.Params, true)
			if len(bodyParams) != len(st.Params) {
				c.errorf(s.Pos(), "state %q has %d parameters here but %d in its declaration",
					s.Name.Name, len(bodyParams), len(st.Params))
			} else {
				for i := range bodyParams {
					if !bodyParams[i].Type.Same(st.Params[i].Type) {
						c.errorf(s.Pos(), "state %q parameter %d has type %s here but %s in its declaration",
							s.Name.Name, i+1, bodyParams[i].Type, st.Params[i].Type)
					}
				}
				st.Params = bodyParams // body's names are authoritative for handlers
			}
		}
		st.Body = s
		if s.Proto != nil && c.p.ProtoName != "" && s.Proto.Name != c.p.ProtoName {
			c.errorf(s.Proto.Pos(), "state qualifier %q does not match protocol %q", s.Proto.Name, c.p.ProtoName)
		}
	}
	for _, st := range c.p.States {
		if st.IsSubroutine() {
			st.Transient = true
		}
	}
}

// params flattens parameter groups into one slice of their exact length
// (nil if they declare none); byRef says whether a group's var marking
// counts, which it does not for locals.
func (c *checker) params(groups []*ast.Param, byRef bool) []ParamSym {
	n := 0
	for _, g := range groups {
		n += len(g.Names)
	}
	if n == 0 {
		return nil
	}
	out := make([]ParamSym, 0, n)
	for _, g := range groups {
		t := c.lookupType(g.Type)
		for _, name := range g.Names {
			out = append(out, ParamSym{Name: name.Name, Type: t, ByRef: byRef && g.ByRef})
		}
	}
	return out
}

// declare gives every declaration the one Symbol all its uses share, in
// one array sized once, and fills c.global. It runs after the last
// declaration is collected and before the first handler body is checked.
//
// A handler usually declares what the handler before it did, at least
// (id, info, src), and a state what the state before it did: a local or
// parameter equal to the one in the same place before it shares that
// one's Symbol, which is equal field for field.
func (c *checker) declare() {
	p := c.p
	globals := len(p.ProtVars) + len(p.Consts) + len(p.ModConsts) + len(builtinAccessConsts) +
		len(builtinValues) + len(p.Messages) + len(p.States) + len(p.Funcs)
	n, refs := globals, 0
	var prevState, prevLocals, prevParams []ParamSym
	for _, st := range p.States {
		refs += len(st.Params)
		n += fresh(st.Params, prevState)
		prevState = st.Params
		for _, h := range st.Handlers {
			refs += len(h.Locals) + len(h.Params) + h.Suspends
			n += fresh(h.Locals, prevLocals) + fresh(h.Params, prevParams) + h.Suspends
			prevLocals, prevParams = h.Locals, h.Params
		}
	}
	p.symbols = make([]Symbol, n)
	c.global = make(map[string]*Symbol, globals)
	next := 0
	take := func(s Symbol) *Symbol {
		sym := &p.symbols[next]
		next++
		*sym = s
		sym.ref = symRef(next)
		return sym
	}
	// Names are declared in lookup order, so the first to claim one keeps it.
	declare := func(s Symbol) *Symbol {
		sym := take(s)
		if _, taken := c.global[s.Name]; !taken {
			c.global[s.Name] = sym
		}
		return sym
	}
	for _, v := range p.ProtVars {
		declare(Symbol{Kind: SymProtVar, Name: v.Name, Type: v.Type, Index: v.Index})
	}
	for name, cv := range p.Consts {
		declare(Symbol{Kind: SymConst, Name: name, Type: cv.Type, Const: cv})
	}
	for _, v := range p.ModConsts {
		declare(Symbol{Kind: SymModConst, Name: v.Name, Type: v.Type, Index: v.Index})
	}
	access := make([]ConstVal, 0, len(builtinAccessConsts))
	for name, mode := range builtinAccessConsts {
		access = append(access, ConstVal{Type: Access, Int: int64(mode)})
		declare(Symbol{Kind: SymConst, Name: name, Type: Access, Const: &access[len(access)-1]})
	}
	for name, bv := range builtinValues {
		declare(Symbol{Kind: SymBuiltinVal, Name: name, Type: bv.Type, Index: int(bv.Builtin)})
	}
	for _, m := range p.Messages {
		declare(Symbol{Kind: SymMessage, Name: m.Name, Type: Msg, Index: m.Index})
	}
	for _, st := range p.States {
		st.sym = declare(Symbol{Kind: SymState, Name: st.Name, Type: State, Index: st.Index})
	}
	for name, f := range p.Funcs {
		f.sym = declare(Symbol{Kind: SymFunc, Name: name, Type: f.Sig.Result, Sig: f.Sig})
	}

	// A handler's own names are looked up in its scope, before c.global.
	ptrs := make([]*Symbol, refs)
	cut := func(k int) []*Symbol {
		s := ptrs[:k:k]
		ptrs = ptrs[k:]
		return s
	}
	scope := func(kind SymKind, list, prev []ParamSym, syms, prevSyms []*Symbol) {
		for i, d := range list {
			if sameDecl(list, prev, i) {
				syms[i] = prevSyms[i]
			} else {
				syms[i] = take(Symbol{Kind: kind, Name: d.Name, Type: d.Type, Index: i})
			}
		}
	}
	prevState, prevLocals, prevParams = nil, nil, nil
	var prevStateSyms, prevLocalSyms, prevParamSyms []*Symbol
	for _, st := range p.States {
		st.paramSyms = cut(len(st.Params))
		scope(SymStateParam, st.Params, prevState, st.paramSyms, prevStateSyms)
		prevState, prevStateSyms = st.Params, st.paramSyms
		for _, h := range st.Handlers {
			h.scope = cut(len(h.Locals) + len(h.Params) + h.Suspends)
			locals, params := h.scope[:len(h.Locals)], h.scope[len(h.Locals):len(h.Locals)+len(h.Params)]
			scope(SymLocal, h.Locals, prevLocals, locals, prevLocalSyms)
			scope(SymParam, h.Params, prevParams, params, prevParamSyms)
			// Each suspend statement's continuation, named when it is checked.
			for i := len(h.Locals) + len(h.Params); i < len(h.scope); i++ {
				h.scope[i] = take(Symbol{Kind: SymSuspendCont})
			}
			prevLocals, prevLocalSyms, prevParams, prevParamSyms = h.Locals, locals, h.Params, params
		}
	}
}

// fresh counts the declarations of list that differ from the one in the
// same place of prev.
func fresh(list, prev []ParamSym) int {
	n := 0
	for i := range list {
		if !sameDecl(list, prev, i) {
			n++
		}
	}
	return n
}

// sameDecl reports whether list[i] declares what prev[i] does.
func sameDecl(list, prev []ParamSym, i int) bool {
	return i < len(prev) && list[i].Name == prev[i].Name && list[i].Type == prev[i].Type
}

func (c *checker) collectHandlers(st *StateSym) {
	if st.Body == nil {
		// Declared but not defined: legal only for non-subroutine states with
		// no handlers? The paper forward-declares all states; require bodies.
		c.errorf(source.Pos{}, "state %q declared but never defined", st.Name)
		return
	}
	st.handlerByMsg = make([]*HandlerSym, len(c.p.Messages))
	for _, h := range st.Body.Handlers {
		hs := &HandlerSym{State: st, Body: h.Body, AST: h}
		if !h.IsDefault() {
			m := c.p.msgByName[h.Name.Name]
			if m == nil {
				c.errorf(h.Name.Pos(), "handler for undeclared message %q in state %q", h.Name.Name, st.Name)
				continue
			}
			hs.Msg = m
			if prev := st.handlerByMsg[m.Index]; prev != nil {
				c.errorf(h.Name.Pos(), "duplicate handler for message %q in state %q", m.Name, st.Name)
				continue
			}
			st.handlerByMsg[m.Index] = hs
		} else {
			if st.Default != nil {
				c.errorf(h.Name.Pos(), "duplicate DEFAULT handler in state %q", st.Name)
				continue
			}
			st.Default = hs
		}
		hs.Params = c.params(h.Params, true)
		hs.Locals = c.params(h.Locals, false)
		ast.Walk(h.Body, func(s ast.Stmt) {
			if _, ok := s.(*ast.SuspendStmt); ok {
				hs.Suspends++
			}
		})
		c.checkHandlerSignature(hs)
		st.Handlers = append(st.Handlers, hs)
	}
	if len(st.Handlers) == 0 {
		c.errorf(st.Body.Pos(), "state %q has no handlers", st.Name)
	}
}

// checkHandlerSignature enforces the delivery convention: every handler
// receives (id : ID; var info : INFO; src : NODE) followed by the message's
// declared payload. DEFAULT handlers receive just the standard triple.
func (c *checker) checkHandlerSignature(hs *HandlerSym) {
	pos := hs.AST.Name.Pos()
	std := []Type{ID, Info, Node}
	if len(hs.Params) < len(std) {
		c.errorf(pos, "handler %s.%s must declare at least (id : ID; var info : INFO; src : NODE)",
			hs.State.Name, hs.Name())
		return
	}
	for i, want := range std {
		if !hs.Params[i].Type.Same(want) {
			c.errorf(pos, "handler %s.%s parameter %d has type %s, want %s",
				hs.State.Name, hs.Name(), i+1, hs.Params[i].Type, want)
		}
	}
	payload := hs.Params[len(std):]
	if hs.Msg == nil {
		if len(payload) != 0 {
			c.errorf(pos, "DEFAULT handler in state %q cannot declare payload parameters", hs.State.Name)
		}
		return
	}
	// The first body found for a message fixes its payload types; later
	// handlers must agree. (Message declarations carry no payload syntax in
	// the Appendix A grammar, so payloads are inferred from handlers and
	// checked against Send sites.)
	var ptypes []Type
	if len(payload) > 0 {
		ptypes = make([]Type, len(payload))
		for i, p := range payload {
			ptypes[i] = p.Type
		}
	}
	if hs.Msg.Payload == nil {
		hs.Msg.Payload = ptypes
		return
	}
	if len(ptypes) != len(hs.Msg.Payload) {
		c.errorf(pos, "handler %s.%s declares %d payload parameters for message %s, other handlers declare %d",
			hs.State.Name, hs.Name(), len(ptypes), hs.Msg.Name, len(hs.Msg.Payload))
		return
	}
	for i := range ptypes {
		if !ptypes[i].Same(hs.Msg.Payload[i]) {
			c.errorf(pos, "handler %s.%s payload parameter %d has type %s, other handlers use %s",
				hs.State.Name, hs.Name(), i+1, ptypes[i], hs.Msg.Payload[i])
		}
	}
}
