// Package ir defines the register-based intermediate representation the
// Teapot compiler lowers handlers into.
//
// Each message handler becomes a Func: a linear instruction sequence with
// explicit jumps. Suspend statements terminate a *fragment*; the fragment
// table records where each resumption re-enters the code and which
// registers a continuation must save and restore (filled in by the
// continuation pass after liveness analysis). This mirrors §5 of the paper:
// a handler with Suspends is compiled into atomically executable pieces
// without multiple stacks.
package ir

import (
	"fmt"
	"strings"

	"teapot/internal/sema"
	"teapot/internal/source"
	"teapot/internal/token"
)

// Reg is a virtual register index. NoReg means "none".
type Reg int

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Op is an IR opcode.
type Op int

// Opcodes.
const (
	OpNop        Op = iota
	OpConst         // Dst := Int (with value kind in Kind)
	OpConstStr      // Dst := Str
	OpMove          // Dst := A
	OpBin           // Dst := A Tok B
	OpUn            // Dst := Tok A
	OpLoadVar       // Dst := block info slot Idx (protocol variable)
	OpStoreVar      // block info slot Idx := A
	OpModConst      // Dst := module constant Idx (runtime-bound)
	OpBuiltinVal    // Dst := builtin value (Idx = sema.Builtin)
	OpCall          // Dst := Fn(Args...); Dst may be NoReg
	OpMakeState     // Dst := state value {Idx = state index, Args}
	OpMakeCont      // Dst := continuation resuming fragment Idx, saving Args
	OpSuspend       // transition block to state value A and yield (ends fragment)
	OpResume        // resume continuation A (ends frame). Idx >= 0 marks a
	// constant-continuation site resolved to suspend site Idx.
	OpReturn // finish handler
	OpJump   // to instruction Idx
	OpBranch // if A goto Idx else goto Idx2
	OpPrint  // print Args
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpConstStr: "conststr", OpMove: "move",
	OpBin: "bin", OpUn: "un", OpLoadVar: "loadvar", OpStoreVar: "storevar",
	OpModConst: "modconst", OpBuiltinVal: "builtinval", OpCall: "call",
	OpMakeState: "makestate", OpMakeCont: "makecont", OpSuspend: "suspend",
	OpResume: "resume", OpReturn: "return", OpJump: "jump",
	OpBranch: "branch", OpPrint: "print",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ValueKind tags OpConst immediates so the VM can build typed values.
type ValueKind int

// Immediate kinds.
const (
	KInt ValueKind = iota
	KBool
	KNode
	KID
	KMsg
	KAccess
)

// FuncRef names a call target (support routine or builtin).
type FuncRef struct {
	Name    string
	Builtin sema.Builtin
	Sig     *sema.Sig
}

// Instr is one IR instruction.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Args []Reg
	Idx  int // slot / state index / fragment index / jump target
	Idx2 int // second branch target
	Tok  token.Kind
	Kind ValueKind
	Int  int64
	Str  string
	Fn   *FuncRef
	Pos  source.Pos
}

// Fragment is one atomically executable piece of a handler.
type Fragment struct {
	Start int   // instruction index of the fragment's entry point
	Saved []Reg // registers a continuation entering here restores
	// Site is the global suspend-site ID that creates continuations
	// entering this fragment (-1 for fragment 0).
	Site int
}

// Func is a compiled handler.
type Func struct {
	Name       string // "State.MESSAGE"
	StateIndex int
	MsgIndex   int // -1 for DEFAULT

	NumStateParams int // registers [0, NumStateParams)
	NumParams      int // registers [NumStateParams, +NumParams)
	NumLocals      int
	NumRegs        int

	Code  []Instr
	Frags []Fragment
}

// StateParamReg returns the register holding state parameter i.
func (f *Func) StateParamReg(i int) Reg { return Reg(i) }

// ParamReg returns the register holding handler parameter i.
func (f *Func) ParamReg(i int) Reg { return Reg(f.NumStateParams + i) }

// LocalReg returns the register holding local i.
func (f *Func) LocalReg(i int) Reg { return Reg(f.NumStateParams + f.NumParams + i) }

// SuspendSite describes one Suspend statement in the program.
type SuspendSite struct {
	ID          int
	Func        *Func
	FragIdx     int // fragment entered on resume
	TargetState int
	// Classification filled by the continuation pass:
	Static   bool // no saved registers: one record can serve every activation
	Constant bool // unique site for its target state: resumes are direct
	// Heap is the pass's one allocation decision: the site's record is
	// heap-allocated, as it is at every site unless the constant-continuation
	// optimization makes it static or constant.
	Heap bool
}

// Program is the compiled protocol: all handlers plus metadata shared with
// the semantic model.
type Program struct {
	Sema  *sema.Program
	Funcs []*Func
	// HandlerFunc[state][msg] is the state's explicit handler for the
	// message, nil when it declares none; Defaults holds each state's
	// DEFAULT handler (or nil).
	HandlerFunc [][]*Func
	Defaults    []*Func
	Sites       []*SuspendSite

	// dispatch is HandlerFunc with each state's DEFAULT folded into the
	// empty cells, row-major: what FuncFor loads from. Built by Link.
	dispatch []*Func
}

// Link builds the dispatch table from HandlerFunc and Defaults; the lowering
// pass calls it once, after the last handler is in place.
func (p *Program) Link() {
	msgs := len(p.Sema.Messages)
	p.dispatch = make([]*Func, len(p.HandlerFunc)*msgs)
	for si, row := range p.HandlerFunc {
		for mi, f := range row {
			if f == nil {
				f = p.Defaults[si]
			}
			p.dispatch[si*msgs+mi] = f
		}
	}
}

// FuncFor returns the handler Func for (state, msg), falling back to the
// state's DEFAULT handler; nil if neither exists. A tag the protocol does
// not declare can only meet the DEFAULT.
func (p *Program) FuncFor(state, msg int) *Func {
	if msgs := len(p.Sema.Messages); uint(msg) < uint(msgs) {
		return p.dispatch[state*msgs+msg]
	}
	return p.Defaults[state]
}

// Disassemble renders a Func for golden tests and debugging.
func (f *Func) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (state=%d msg=%d) sp=%d p=%d l=%d regs=%d\n",
		f.Name, f.StateIndex, f.MsgIndex, f.NumStateParams, f.NumParams, f.NumLocals, f.NumRegs)
	fragAt := map[int]int{}
	for i, fr := range f.Frags {
		fragAt[fr.Start] = i
	}
	for i, in := range f.Code {
		if fi, ok := fragAt[i]; ok {
			fmt.Fprintf(&b, " frag %d (site=%d saved=%v):\n", fi, f.Frags[fi].Site, regList(f.Frags[fi].Saved))
		}
		fmt.Fprintf(&b, "  %3d: %s\n", i, in.String())
	}
	return b.String()
}

func regList(rs []Reg) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r)
	}
	return out
}

func (in Instr) String() string {
	d := func() string {
		if in.Dst == NoReg {
			return "_"
		}
		return fmt.Sprintf("r%d", in.Dst)
	}
	r := func(x Reg) string { return fmt.Sprintf("r%d", x) }
	args := func() string {
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = r(a)
		}
		return strings.Join(parts, ", ")
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%s := const %d (kind %d)", d(), in.Int, in.Kind)
	case OpConstStr:
		return fmt.Sprintf("%s := str %q", d(), in.Str)
	case OpMove:
		return fmt.Sprintf("%s := %s", d(), r(in.A))
	case OpBin:
		return fmt.Sprintf("%s := %s %s %s", d(), r(in.A), in.Tok, r(in.B))
	case OpUn:
		return fmt.Sprintf("%s := %s %s", d(), in.Tok, r(in.A))
	case OpLoadVar:
		return fmt.Sprintf("%s := var[%d]", d(), in.Idx)
	case OpStoreVar:
		return fmt.Sprintf("var[%d] := %s", in.Idx, r(in.A))
	case OpModConst:
		return fmt.Sprintf("%s := modconst[%d]", d(), in.Idx)
	case OpBuiltinVal:
		return fmt.Sprintf("%s := builtin[%d]", d(), in.Idx)
	case OpCall:
		return fmt.Sprintf("%s := %s(%s)", d(), in.Fn.Name, args())
	case OpMakeState:
		return fmt.Sprintf("%s := state[%d]{%s}", d(), in.Idx, args())
	case OpMakeCont:
		return fmt.Sprintf("%s := cont(frag %d, save %s)", d(), in.Idx, args())
	case OpSuspend:
		return fmt.Sprintf("suspend -> %s", r(in.A))
	case OpResume:
		if in.Idx >= 0 {
			return fmt.Sprintf("resume %s [const site %d]", r(in.A), in.Idx)
		}
		return fmt.Sprintf("resume %s", r(in.A))
	case OpReturn:
		return "return"
	case OpJump:
		return fmt.Sprintf("jump %d", in.Idx)
	case OpBranch:
		return fmt.Sprintf("branch %s ? %d : %d", r(in.A), in.Idx, in.Idx2)
	case OpPrint:
		return fmt.Sprintf("print(%s)", args())
	}
	return in.Op.String()
}

// Uses appends the registers the instruction reads to dst and returns it.
func (in *Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case OpMove, OpUn, OpStoreVar, OpSuspend:
		dst = append(dst, in.A)
	case OpBin:
		dst = append(dst, in.A, in.B)
	case OpResume:
		dst = append(dst, in.A)
	case OpBranch:
		dst = append(dst, in.A)
	}
	for _, a := range in.Args {
		dst = append(dst, a)
	}
	return dst
}

// Def returns the register the instruction writes, or NoReg.
func (in *Instr) Def() Reg {
	switch in.Op {
	case OpConst, OpConstStr, OpMove, OpBin, OpUn, OpLoadVar, OpModConst,
		OpBuiltinVal, OpCall, OpMakeState, OpMakeCont:
		return in.Dst
	}
	return NoReg
}

// Terminates reports whether control never falls through this instruction.
func (in *Instr) Terminates() bool {
	switch in.Op {
	case OpSuspend, OpResume, OpReturn, OpJump:
		return true
	}
	return false
}

// Succs appends the instruction indices control may flow to from index i.
func (f *Func) Succs(i int, dst []int) []int {
	in := &f.Code[i]
	switch in.Op {
	case OpJump:
		return append(dst, in.Idx)
	case OpBranch:
		return append(dst, in.Idx, in.Idx2)
	case OpReturn, OpResume:
		return dst
	case OpSuspend:
		// Control continues at the fragment entered on resume — for
		// dataflow purposes the suspend flows into the next fragment.
		for fi := range f.Frags {
			if f.Frags[fi].Start == i+1 {
				return append(dst, i+1)
			}
		}
		return dst
	}
	if i+1 < len(f.Code) {
		dst = append(dst, i+1)
	}
	return dst
}
