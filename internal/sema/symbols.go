package sema

import (
	"teapot/internal/ast"
)

// SymKind classifies resolved names.
type SymKind int

// Symbol kinds.
const (
	SymInvalid     SymKind = iota
	SymParam               // handler parameter (register slot)
	SymLocal               // handler local (register slot)
	SymStateParam          // enclosing state's parameter (e.g. the CONT arg)
	SymProtVar             // protocol-level per-block variable
	SymConst               // protocol constant (compile-time int/bool)
	SymModConst            // module abstract constant (runtime-bound)
	SymFunc                // support routine or builtin function/procedure
	SymState               // state name
	SymMessage             // message tag
	SymSuspendCont         // the continuation variable bound by a Suspend
	SymBuiltinVal          // builtin value (MessageTag, MySelf)
)

// Symbol is the result of resolving an identifier.
type Symbol struct {
	Kind  SymKind
	Name  string
	Type  Type
	Index int       // slot/ID meaning depends on Kind
	Sig   *Sig      // for SymFunc
	Const *ConstVal // for SymConst
}

// ConstVal is a compile-time constant value.
type ConstVal struct {
	Type Type
	Int  int64 // also holds bools as 0/1
	Str  string
}

// Message describes a declared message tag. Index is the runtime MsgID.
type Message struct {
	Name    string
	Index   int
	Payload []Type // payload types beyond the standard (id, info, src) triple
	Decl    *ast.MessageDecl
}

// ParamSym is one flattened parameter or local.
type ParamSym struct {
	Name  string
	Type  Type
	ByRef bool
}

// StateSym describes a state. Index is the runtime StateID.
type StateSym struct {
	Name      string
	Index     int
	Params    []ParamSym
	Transient bool
	Body      *ast.State // nil if declared but not defined
	Handlers  []*HandlerSym
	// handlerByMsg maps message index -> handler; -1 keyed entry unused.
	handlerByMsg map[int]*HandlerSym
	Default      *HandlerSym
}

// IsSubroutine reports whether the state takes a continuation parameter
// (i.e. it is entered via Suspend and left via Resume).
func (s *StateSym) IsSubroutine() bool {
	for _, p := range s.Params {
		if p.Type.Kind == TCont {
			return true
		}
	}
	return false
}

// ContParam returns the index of the state's CONT parameter, or -1 if it
// has none or several (state parameters occupy the first registers, in
// order, so this is also the parameter's register).
func (s *StateSym) ContParam() int {
	idx := -1
	for i, p := range s.Params {
		if p.Type.Kind == TCont {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	return idx
}

// HandlerFor returns the handler for a message index, falling back to the
// DEFAULT handler; nil if neither exists.
func (s *StateSym) HandlerFor(msg int) *HandlerSym {
	if h, ok := s.handlerByMsg[msg]; ok {
		return h
	}
	return s.Default
}

// HandlerSym describes one message handler.
type HandlerSym struct {
	State    *StateSym
	Msg      *Message // nil for DEFAULT
	Params   []ParamSym
	Locals   []ParamSym
	Body     []ast.Stmt
	AST      *ast.Handler
	Suspends int // number of suspend statements (for diagnostics/stats)
}

// Name returns the handled message name or DEFAULT.
func (h *HandlerSym) Name() string {
	if h.Msg == nil {
		return ast.DefaultName
	}
	return h.Msg.Name
}

// VarSym is a protocol-level per-block variable.
type VarSym struct {
	Name  string
	Type  Type
	Index int // slot in the block's info record
}

// FuncSym is a support routine (module-declared) or builtin.
type FuncSym struct {
	Name    string
	Sig     *Sig
	Builtin Builtin // BNone for module routines
}

// Program is the semantic model of a Teapot protocol, the single source for
// all backends.
type Program struct {
	AST       *ast.Program
	ProtoName string

	Types     map[string]Type
	Messages  []*Message
	States    []*StateSym
	ProtVars  []*VarSym
	Consts    map[string]*ConstVal // protocol consts
	ModConsts []*VarSym            // abstract module constants (runtime-bound); Index = slot
	Funcs     map[string]*FuncSym

	msgByName   map[string]*Message
	stateByName map[string]*StateSym

	// Uses records resolution results for every identifier expression,
	// keyed by node identity; consumed by the lowerer and backends.
	Uses map[*ast.Ident]*Symbol
}

// MessageByName returns the message with the given name, or nil.
func (p *Program) MessageByName(name string) *Message { return p.msgByName[name] }

// StateByName returns the state with the given name, or nil.
func (p *Program) StateByName(name string) *StateSym { return p.stateByName[name] }

// NumHandlers returns the total number of handlers across all states.
func (p *Program) NumHandlers() int {
	n := 0
	for _, s := range p.States {
		n += len(s.Handlers)
	}
	return n
}
