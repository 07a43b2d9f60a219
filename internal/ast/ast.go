// Package ast defines the abstract syntax tree for Teapot programs,
// following the grammar in Appendix A of the PLDI '96 paper.
//
// A program is: a list of support modules (abstract types and prototypes of
// support routines), one protocol declaration (protocol-level variables,
// constants, state and message declarations), and the state bodies
// themselves, each containing message handlers.
package ast

import (
	"teapot/internal/source"
	"teapot/internal/token"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() source.Pos
}

// Ident is an identifier occurrence.
type Ident struct {
	Name    string
	NamePos source.Pos
	// Ord numbers the identifier among its Program's: the parser gives
	// the identifiers it makes the ordinals 0 to Program.Idents-1, so a
	// table of per-identifier facts can be a slice of exact length.
	Ord int
}

func (x *Ident) Pos() source.Pos { return x.NamePos }
func (x *Ident) String() string {
	if x == nil {
		return "<nil>"
	}
	return x.Name
}

// Program is a complete Teapot compilation unit.
type Program struct {
	File     *source.File
	Modules  []*Module
	Protocol *Protocol
	States   []*State
	Idents   int // identifiers in the tree, numbered by their Ord
}

func (p *Program) Pos() source.Pos {
	if len(p.Modules) > 0 {
		return p.Modules[0].Pos()
	}
	if p.Protocol != nil {
		return p.Protocol.Pos()
	}
	return source.Pos{}
}

// Module declares abstract types and support-routine prototypes. Concrete
// implementations are supplied by the embedding system (Go support modules
// here; C or Murphi support code in the paper).
type Module struct {
	ModulePos source.Pos
	Name      *Ident
	Decls     []ModDecl
}

func (m *Module) Pos() source.Pos { return m.ModulePos }

// ModDecl is a declaration inside a module.
type ModDecl interface {
	Node
	modDecl()
}

// TypeDecl declares an abstract type (e.g. "type SharerList;").
type TypeDecl struct {
	TypePos source.Pos
	Name    *Ident
}

func (d *TypeDecl) Pos() source.Pos { return d.TypePos }
func (d *TypeDecl) modDecl()        {}

// ModConstDecl declares a named constant of an abstract type
// ("const Blk_Invalidate : ACCESS;").
type ModConstDecl struct {
	ConstPos source.Pos
	Name     *Ident
	Type     *Ident
}

func (d *ModConstDecl) Pos() source.Pos { return d.ConstPos }
func (d *ModConstDecl) modDecl()        {}

// SubDecl is a function or procedure prototype.
type SubDecl struct {
	DeclPos source.Pos
	Name    *Ident
	Params  []*Param
	Result  *Ident // nil for procedures
}

func (d *SubDecl) Pos() source.Pos { return d.DeclPos }
func (d *SubDecl) modDecl()        {}

// Param is one parameter group: "var a, b : NODE" or "id : ID".
type Param struct {
	VarPos source.Pos // position of 'var' if ByRef
	Names  []*Ident
	Type   *Ident
	ByRef  bool
}

func (p *Param) Pos() source.Pos {
	if len(p.Names) > 0 {
		return p.Names[0].Pos()
	}
	return p.VarPos
}

// Protocol is the protocol header block.
type Protocol struct {
	ProtoPos source.Pos
	Name     *Ident
	Decls    []ProtDecl
}

func (p *Protocol) Pos() source.Pos { return p.ProtoPos }

// ProtDecl is a declaration inside the protocol block.
type ProtDecl interface {
	Node
	protDecl()
}

// ProtVarDecl declares a protocol-level variable ("var pending : int;").
// Protocol variables are per-block bookkeeping fields (the paper's "global
// info area available per block, which can be used to communicate values").
type ProtVarDecl struct {
	VarPos source.Pos
	Name   *Ident
	Type   *Ident
}

func (d *ProtVarDecl) Pos() source.Pos { return d.VarPos }
func (d *ProtVarDecl) protDecl()       {}

// ProtConstDecl defines a protocol constant ("const MaxSharers := 32;").
type ProtConstDecl struct {
	ConstPos source.Pos
	Name     *Ident
	Value    Expr
}

func (d *ProtConstDecl) Pos() source.Pos { return d.ConstPos }
func (d *ProtConstDecl) protDecl()       {}

// StateDecl forward-declares a state and its parameters
// ("state Cache_RO_To_RW (C : CONT) transient;").
type StateDecl struct {
	StatePos  source.Pos
	Name      *Ident
	Params    []*Param
	Transient bool
}

func (d *StateDecl) Pos() source.Pos { return d.StatePos }
func (d *StateDecl) protDecl()       {}

// MessageDecl declares a message tag ("message GET_RO_REQ;").
type MessageDecl struct {
	MsgPos source.Pos
	Name   *Ident
}

func (d *MessageDecl) Pos() source.Pos { return d.MsgPos }
func (d *MessageDecl) protDecl()       {}

// State is a state body: "state Stache.Cache_ReadOnly{...} begin ... end;".
// The paper writes parameters in braces for state values and in parentheses
// for declarations; the parser accepts both here.
type State struct {
	StatePos source.Pos
	Proto    *Ident // protocol qualifier before the dot
	Name     *Ident
	Params   []*Param
	Handlers []*Handler
}

func (s *State) Pos() source.Pos { return s.StatePos }

// DefaultName is the reserved handler name matching otherwise-unhandled
// messages.
const DefaultName = "DEFAULT"

// Handler is a message handler within a state.
type Handler struct {
	MsgPos source.Pos
	Name   *Ident // message tag, or DEFAULT
	Params []*Param
	Locals []*Param // block-decls: local variable groups
	Body   []Stmt
}

func (h *Handler) Pos() source.Pos { return h.MsgPos }

// IsDefault reports whether this is the DEFAULT handler.
func (h *Handler) IsDefault() bool { return h.Name.Name == DefaultName }

// Stmt is a statement.
type Stmt interface {
	Node
	stmt()
}

// IfStmt is "if (e) then ... [else ...] endif".
type IfStmt struct {
	IfPos source.Pos
	Cond  Expr
	Then  []Stmt
	Else  []Stmt
}

func (s *IfStmt) Pos() source.Pos { return s.IfPos }
func (s *IfStmt) stmt()           {}

// WhileStmt is "while (e) do ... end".
type WhileStmt struct {
	WhilePos source.Pos
	Cond     Expr
	Body     []Stmt
}

func (s *WhileStmt) Pos() source.Pos { return s.WhilePos }
func (s *WhileStmt) stmt()           {}

// CallStmt invokes a support procedure or builtin ("Send(home, GET_RO_REQ, id);").
type CallStmt struct {
	Call *CallExpr
}

func (s *CallStmt) Pos() source.Pos { return s.Call.Pos() }
func (s *CallStmt) stmt()           {}

// AssignStmt is "x := e".
type AssignStmt struct {
	LHS *Ident
	RHS Expr
}

func (s *AssignStmt) Pos() source.Pos { return s.LHS.Pos() }
func (s *AssignStmt) stmt()           {}

// SuspendStmt is "Suspend(L, TargetState{L, ...})": capture the current
// continuation into L, transition the block to the target subroutine state
// (whose arguments may mention L), and yield.
type SuspendStmt struct {
	SuspendPos source.Pos
	Cont       *Ident
	Target     *StateExpr
}

func (s *SuspendStmt) Pos() source.Pos { return s.SuspendPos }
func (s *SuspendStmt) stmt()           {}

// ResumeStmt is "Resume(C)": finish this handler and continue the suspended
// computation captured in C.
type ResumeStmt struct {
	ResumePos source.Pos
	Cont      Expr
}

func (s *ResumeStmt) Pos() source.Pos { return s.ResumePos }
func (s *ResumeStmt) stmt()           {}

// ReturnStmt is "return" or "return e"; in handler bodies a bare return acts
// as the paper's "exit" (finish the handler).
type ReturnStmt struct {
	ReturnPos source.Pos
	Value     Expr // may be nil
}

func (s *ReturnStmt) Pos() source.Pos { return s.ReturnPos }
func (s *ReturnStmt) stmt()           {}

// PrintStmt is "print(e, ...)", a debugging aid.
type PrintStmt struct {
	PrintPos source.Pos
	Args     []Expr
}

func (s *PrintStmt) Pos() source.Pos { return s.PrintPos }
func (s *PrintStmt) stmt()           {}

// Expr is an expression.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	LitPos source.Pos
	Value  int64
}

func (x *IntLit) Pos() source.Pos { return x.LitPos }
func (x *IntLit) expr()           {}

// BoolLit is "true" or "false".
type BoolLit struct {
	LitPos source.Pos
	Value  bool
}

func (x *BoolLit) Pos() source.Pos { return x.LitPos }
func (x *BoolLit) expr()           {}

// StringLit is a string literal (only meaningful to Error/print).
type StringLit struct {
	LitPos source.Pos
	Value  string
}

func (x *StringLit) Pos() source.Pos { return x.LitPos }
func (x *StringLit) expr()           {}

// Name is a variable, parameter, or constant reference.
type Name struct {
	Ident *Ident
}

func (x *Name) Pos() source.Pos { return x.Ident.Pos() }
func (x *Name) expr()           {}

// CallExpr is a support-function application "f(a, b)".
type CallExpr struct {
	Func *Ident
	Args []Expr
}

func (x *CallExpr) Pos() source.Pos { return x.Func.Pos() }
func (x *CallExpr) expr()           {}

// StateExpr is a state-value constructor "Cache_RW{}" or "Cache_RO_To_RW{L}".
type StateExpr struct {
	Name *Ident
	Args []Expr
}

func (x *StateExpr) Pos() source.Pos { return x.Name.Pos() }
func (x *StateExpr) expr()           {}

// BinExpr is a binary operation.
type BinExpr struct {
	Op    token.Kind
	OpPos source.Pos
	X, Y  Expr
}

func (x *BinExpr) Pos() source.Pos { return x.X.Pos() }
func (x *BinExpr) expr()           {}

// UnExpr is a unary operation (not, -).
type UnExpr struct {
	Op    token.Kind
	OpPos source.Pos
	X     Expr
}

func (x *UnExpr) Pos() source.Pos { return x.OpPos }
func (x *UnExpr) expr()           {}

// ParenExpr preserves explicit parentheses.
type ParenExpr struct {
	LPos source.Pos
	X    Expr
}

func (x *ParenExpr) Pos() source.Pos { return x.LPos }
func (x *ParenExpr) expr()           {}

// Walk calls fn for every statement in the handler body, recursing into
// nested if/while bodies. It is the shared traversal used by sema and lower.
func Walk(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch s := s.(type) {
		case *IfStmt:
			Walk(s.Then, fn)
			Walk(s.Else, fn)
		case *WhileStmt:
			Walk(s.Body, fn)
		}
	}
}

// WalkExprs calls fn for every expression reachable from e (including e).
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *CallExpr:
		for _, a := range e.Args {
			WalkExprs(a, fn)
		}
	case *StateExpr:
		for _, a := range e.Args {
			WalkExprs(a, fn)
		}
	case *BinExpr:
		WalkExprs(e.X, fn)
		WalkExprs(e.Y, fn)
	case *UnExpr:
		WalkExprs(e.X, fn)
	case *ParenExpr:
		WalkExprs(e.X, fn)
	}
}
