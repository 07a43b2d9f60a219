package sema_test

import (
	"reflect"
	"slices"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/ast"
	"teapot/internal/codegen"
	"teapot/internal/cont"
	"teapot/internal/lower"
	"teapot/internal/murphi"
	"teapot/internal/parser"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

func checkBundled(t *testing.T, e protocols.Entry) *sema.Program {
	t.Helper()
	prog, err := parser.Parse(e.Config.Name, e.Config.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", e.Name, err)
	}
	p, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("%s: check: %v", e.Name, err)
	}
	return p
}

// use is one identifier the checker resolves: what the Symbol built for it
// alone used to hold, and the declaration it names.
type use struct {
	id   *ast.Ident
	want sema.Symbol
	decl any
}

// uses lists every identifier the checker resolves in p's handler bodies.
// want is what the checker built for each use before declarations shared
// their Symbols: handlerScope's lookup order, one fresh Symbol per use.
func uses(p *sema.Program) []use {
	var out []use
	type global struct {
		kind sema.SymKind
		name string
	}
	type scoped struct {
		scope any // the handler or state declaring it
		kind  sema.SymKind
		index int
	}
	for _, st := range p.States {
		for _, h := range st.Handlers {
			// resolve is the lookup of a name used in h's body; cont is the
			// suspend statement whose target's arguments it is in, if any.
			resolve := func(id *ast.Ident, cont *ast.SuspendStmt) {
				name := id.Name
				add := func(s sema.Symbol, decl any) { out = append(out, use{id, s, decl}) }
				if cont != nil && cont.Cont.Name == name {
					add(sema.Symbol{Kind: sema.SymSuspendCont, Name: name, Type: sema.Cont}, cont)
					return
				}
				for i, l := range h.Locals {
					if l.Name == name {
						add(sema.Symbol{Kind: sema.SymLocal, Name: name, Type: l.Type, Index: i}, scoped{h, sema.SymLocal, i})
						return
					}
				}
				for i, hp := range h.Params {
					if hp.Name == name {
						add(sema.Symbol{Kind: sema.SymParam, Name: name, Type: hp.Type, Index: i}, scoped{h, sema.SymParam, i})
						return
					}
				}
				for i, sp := range st.Params {
					if sp.Name == name {
						add(sema.Symbol{Kind: sema.SymStateParam, Name: name, Type: sp.Type, Index: i}, scoped{st, sema.SymStateParam, i})
						return
					}
				}
				find := func(vs []*sema.VarSym) *sema.VarSym {
					if i := slices.IndexFunc(vs, func(v *sema.VarSym) bool { return v.Name == name }); i >= 0 {
						return vs[i]
					}
					return nil
				}
				var s sema.Symbol
				if v := find(p.ProtVars); v != nil {
					s = sema.Symbol{Kind: sema.SymProtVar, Name: name, Type: v.Type, Index: v.Index}
				} else if cv := p.Consts[name]; cv != nil {
					s = sema.Symbol{Kind: sema.SymConst, Name: name, Type: cv.Type, Const: cv}
				} else if v := find(p.ModConsts); v != nil {
					s = sema.Symbol{Kind: sema.SymModConst, Name: name, Type: v.Type, Index: v.Index}
				} else if mode, ok := sema.AccessConst(name); ok {
					s = sema.Symbol{Kind: sema.SymConst, Name: name, Type: sema.Access,
						Const: &sema.ConstVal{Type: sema.Access, Int: int64(mode)}}
				} else if typ, b, ok := sema.BuiltinValue(name); ok {
					s = sema.Symbol{Kind: sema.SymBuiltinVal, Name: name, Type: typ, Index: int(b)}
				} else if m := p.MessageByName(name); m != nil {
					s = sema.Symbol{Kind: sema.SymMessage, Name: name, Type: sema.Msg, Index: m.Index}
				} else if st := p.StateByName(name); st != nil {
					s = sema.Symbol{Kind: sema.SymState, Name: name, Type: sema.State, Index: st.Index}
				} else if f := p.Funcs[name]; f != nil {
					s = sema.Symbol{Kind: sema.SymFunc, Name: name, Type: f.Sig.Result, Sig: f.Sig}
				} else {
					panic("uses: unresolved " + name)
				}
				add(s, global{s.Kind, name})
			}
			exprs := func(e ast.Expr, cont *ast.SuspendStmt) {
				ast.WalkExprs(e, func(e ast.Expr) {
					switch e := e.(type) {
					case *ast.Name:
						resolve(e.Ident, cont)
					case *ast.CallExpr:
						f := p.Funcs[e.Func.Name]
						out = append(out, use{e.Func, sema.Symbol{Kind: sema.SymFunc, Name: f.Name, Type: f.Sig.Result, Sig: f.Sig},
							global{sema.SymFunc, f.Name}})
					case *ast.StateExpr:
						st := p.StateByName(e.Name.Name)
						out = append(out, use{e.Name, sema.Symbol{Kind: sema.SymState, Name: st.Name, Type: sema.State, Index: st.Index},
							global{sema.SymState, st.Name}})
					}
				})
			}
			ast.Walk(h.Body, func(s ast.Stmt) {
				switch s := s.(type) {
				case *ast.AssignStmt:
					resolve(s.LHS, nil)
					exprs(s.RHS, nil)
				case *ast.IfStmt:
					exprs(s.Cond, nil)
				case *ast.WhileStmt:
					exprs(s.Cond, nil)
				case *ast.CallStmt:
					exprs(s.Call, nil)
				case *ast.SuspendStmt:
					out = append(out, use{s.Cont, sema.Symbol{Kind: sema.SymSuspendCont, Name: s.Cont.Name, Type: sema.Cont}, s})
					exprs(s.Target, s)
				case *ast.ResumeStmt:
					exprs(s.Cont, nil)
				case *ast.ReturnStmt:
					exprs(s.Value, nil)
				case *ast.PrintStmt:
					for _, a := range s.Args {
						exprs(a, nil)
					}
				}
			})
		}
	}
	return out
}

// TestSharedSymbols: in every bundled protocol, each resolved identifier
// carries what its own Symbol used to, every use of one declaration shares
// one Symbol, and every Symbol, as used or as kept on its declaration, lies
// in the program's one symbol array.
func TestSharedSymbols(t *testing.T) {
	for _, e := range protocols.All() {
		p := checkBundled(t, e)
		inArray := map[*sema.Symbol]bool{}
		syms := sema.Symbols(p)
		for i := range syms {
			inArray[&syms[i]] = true
		}
		for _, sym := range sema.Declared(p) {
			if !inArray[sym] {
				t.Errorf("%s: a declaration's Symbol %+v is not in the program's symbol array", e.Name, *sym)
			}
		}
		byDecl := map[any]*sema.Symbol{}
		us := uses(p)
		if len(us) == 0 {
			t.Fatalf("%s: no uses found", e.Name)
		}
		for _, u := range us {
			got := p.Use(u.id)
			if got == nil {
				t.Errorf("%s %s at %s: unresolved", e.Name, u.id.Name, u.id.Pos())
				continue
			}
			w := u.want
			if got.Kind != w.Kind || got.Name != w.Name || got.Type != w.Type || got.Index != w.Index ||
				got.Sig != w.Sig || (got.Const == nil) != (w.Const == nil) || (w.Const != nil && *got.Const != *w.Const) {
				t.Errorf("%s %s at %s: resolved to %+v, want %+v", e.Name, u.id.Name, u.id.Pos(), *got, w)
			}
			if !inArray[got] {
				t.Errorf("%s %s at %s: Symbol is not in the program's symbol array", e.Name, u.id.Name, u.id.Pos())
			}
			if first, ok := byDecl[u.decl]; !ok {
				byDecl[u.decl] = got
			} else if first != got {
				t.Errorf("%s %s at %s: two uses of one declaration resolve to different Symbols", e.Name, u.id.Name, u.id.Pos())
			}
		}
	}
}

// symbolState is a deep copy of what a program's Symbols hold.
type symbolState struct {
	syms   []sema.Symbol
	consts []sema.ConstVal
	sigs   []sema.Sig
}

func snapshot(p *sema.Program) symbolState {
	var s symbolState
	for _, sym := range sema.Symbols(p) {
		s.syms = append(s.syms, sym)
		if sym.Const != nil {
			s.consts = append(s.consts, *sym.Const)
		}
		if sym.Sig != nil {
			sig := *sym.Sig
			sig.Params, sig.ByRef = slices.Clone(sig.Params), slices.Clone(sig.ByRef)
			s.sigs = append(s.sigs, sig)
		}
	}
	return s
}

// TestBackEndsLeaveSymbolsUnchanged: lowering, the continuation pass, the
// static analyses and both text back ends only read the Symbols that the
// uses of a declaration share.
func TestBackEndsLeaveSymbolsUnchanged(t *testing.T) {
	for _, e := range protocols.All() {
		p := checkBundled(t, e)
		before := snapshot(p)
		irp := lower.Lower(p)
		cont.Transform(irp, e.Config.Options())
		proto := &runtime.Protocol{IR: irp}
		analysis.Analyze(proto)
		analysis.ProveSymmetry(proto)
		codegen.Generate(irp, "proto")
		murphi.Generate(irp, murphi.Options{})
		if after := snapshot(p); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the back ends changed a Symbol", e.Name)
		}
	}
}
