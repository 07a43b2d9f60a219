package vm

import (
	"fmt"
	"strings"

	"teapot/internal/ir"
	"teapot/internal/sema"
	"teapot/internal/token"
)

// Host is the embedding a handler activation runs against: the simulator
// runtime or the model checker. All protocol effects flow through it.
type Host interface {
	// Per-block protocol variables of the current block.
	LoadVar(slot int) Value
	StoreVar(slot int, v Value)
	// ModConst resolves an abstract module constant by slot.
	ModConst(slot int) Value
	// Current-message builtin values.
	MessageTag() Value
	MessageSrc() Value
	// Effects.
	Send(data bool, dst, tag, id Value, payload []Value) error
	SetState(sv *StateVal) error
	Enqueue() error
	Nack() error
	Drop() error
	WakeUp(id Value) error
	AccessChange(id Value, mode sema.AccessMode) error
	RecvData(id Value, mode sema.AccessMode) error
	MyNode() Value
	HomeNode(id Value) Value
	// BlockID and BlockInfo identify the block the current dispatch
	// concerns; resumed fragments rematerialize their id/info parameters
	// from them instead of saving them in continuation records.
	BlockID() Value
	BlockInfo() Value
	// CallSupport invokes a module support routine. Arguments are passed
	// by reference so var parameters can be mutated.
	CallSupport(name string, args []*Value) (Value, error)
	// ProtocolError reports a protocol-level error (Error builtin,
	// division by zero, runaway handler).
	ProtocolError(msg string) error
	Print(s string)
}

// Counters accumulates execution statistics across handler activations.
// These feed the paper's Table 1/2 "Allocs" columns and the simulator's
// cycle cost model.
type Counters struct {
	Instrs       int64 // IR instructions interpreted
	Handlers     int64 // handler activations (dispatches)
	HeapConts    int64 // dynamically allocated continuation records
	StaticConts  int64 // statically allocated (optimized-away) records
	Resumes      int64 // dynamic (indirect) resumes
	ConstResumes int64 // constant-continuation (direct) resumes
	Calls        int64 // support routine calls
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Instrs += o.Instrs
	c.Handlers += o.Handlers
	c.HeapConts += o.HeapConts
	c.StaticConts += o.StaticConts
	c.Resumes += o.Resumes
	c.ConstResumes += o.ConstResumes
	c.Calls += o.Calls
}

// Tracer observes the continuation machinery from inside the interpreter:
// the rare ops (Suspend, Resume, MakeCont) that the Host interface cannot
// distinguish from ordinary effects. Installed by the runtime engine when
// an observability sink is attached; nil costs one pointer test at those
// ops only — never on the per-instruction path.
type Tracer interface {
	// TraceSuspend fires after a Suspend transitioned into sv.
	TraceSuspend(sv *StateVal)
	// TraceResume fires before control transfers into c. direct reports a
	// constant-continuation (inlined) resume.
	TraceResume(c *Cont, direct bool)
	// TraceContAlloc fires when a continuation record is built.
	TraceContAlloc(c *Cont)
}

// Exec interprets handlers of one compiled program.
type Exec struct {
	Prog     *ir.Program
	Counters Counters
	// MaxSteps bounds one activation (runaway-loop guard); 0 = default.
	MaxSteps int
	// Tracer, when non-nil, observes Suspend/Resume/MakeCont.
	Tracer Tracer
	// Region is where the records handlers build go (state values with
	// arguments, continuations that save registers, message payloads); nil
	// is the heap.
	Region *Region

	// stack is the register stack: every activation carves its register
	// file from the top (RunHandler and Resume push a frame and pop it on
	// every return path; a Resume inside an activation is a tail transfer
	// and replaces the frame). A nested activation that outgrows the stack
	// moves it to a larger array and leaves the frames below on the old one,
	// where their activations keep using them — so a frame is only ever
	// reached through the slice its activation holds, never through stack.
	stack []Value

	// What never changes is built once. State values and continuation
	// records are immutable, so every activation may hand out the same one:
	// bare[i] is the value of argument-less state i (see BareState) and
	// siteConts[s] the record of suspend site s when its fragment restores
	// no registers (see SiteCont). args is the stack of support-call
	// argument vectors. All three fill lazily and, like the register stack,
	// are never shared between Execs.
	bare      []*StateVal
	siteConts []*Cont
	args      []*Value
}

// Depth returns the number of registers on the register stack: 0 whenever
// no handler is executing.
func (x *Exec) Depth() int { return len(x.stack) }

// BareState returns the one value of argument-less state i: what an
// OpMakeState without arguments yields and what a decoder installs for such
// a state. Sharing it is sound because a transition installs a new state
// value, it never writes through the old one.
func (x *Exec) BareState(i int) *StateVal {
	if x.bare == nil {
		x.bare = make([]*StateVal, len(x.Prog.Sema.States))
	}
	if x.bare[i] == nil {
		x.bare[i] = &StateVal{State: i}
	}
	return x.bare[i]
}

// frame carves a zeroed n-register frame at base, discarding whatever the
// stack held above it.
func (x *Exec) frame(base, n int) []Value {
	if base+n > cap(x.stack) {
		x.stack = make([]Value, base, max(2*cap(x.stack), base+n))
	}
	x.stack = x.stack[:base+n]
	regs := x.stack[base : base+n : base+n]
	clear(regs)
	return regs
}

// DefaultMaxSteps bounds a single handler activation.
const DefaultMaxSteps = 1 << 20

// RunHandler executes handler f from its entry fragment. stateArgs are the
// current state's arguments; params are the delivered message's standard
// triple plus payload. The activation runs to completion (through any
// Resumes) before returning.
func (x *Exec) RunHandler(h Host, f *ir.Func, stateArgs, params []Value) error {
	if len(stateArgs) != f.NumStateParams {
		return fmt.Errorf("vm: %s: got %d state args, want %d", f.Name, len(stateArgs), f.NumStateParams)
	}
	if len(params) != f.NumParams {
		return fmt.Errorf("vm: %s: got %d params, want %d", f.Name, len(params), f.NumParams)
	}
	base := len(x.stack)
	regs := x.frame(base, f.NumRegs)
	copy(regs, stateArgs)
	copy(regs[f.NumStateParams:], params)
	x.Counters.Handlers++
	err := x.run(h, f, f.Frags[0].Start, regs, base)
	x.stack = x.stack[:base]
	return err
}

// Resume executes a continuation (used by the runtime when a Resume
// transfers into a previously suspended handler from outside the VM; within
// an activation resumes are handled inline).
func (x *Exec) Resume(h Host, c *Cont) error {
	base := len(x.stack)
	regs := x.restore(h, c, base)
	err := x.run(h, c.Fn, c.Fn.Frags[c.Frag].Start, regs, base)
	x.stack = x.stack[:base]
	return err
}

// restore builds the frame of a resumed fragment at base.
func (x *Exec) restore(h Host, c *Cont, base int) []Value {
	regs := x.frame(base, c.Fn.NumRegs)
	saved := c.Fn.Frags[c.Frag].Saved
	for i, r := range saved {
		regs[r] = c.Saved[i]
	}
	// Rematerialize the block-derived parameters (see cont.Transform).
	if c.Fn.NumParams >= 2 {
		regs[c.Fn.ParamReg(0)] = h.BlockID()
		regs[c.Fn.ParamReg(1)] = h.BlockInfo()
	}
	return regs
}

// run interprets f from pc over regs, the frame its caller carved at base
// (and pops when run returns).
func (x *Exec) run(h Host, f *ir.Func, pc int, regs []Value, base int) error {
	steps := 0
	max := x.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	for {
		if pc >= len(f.Code) {
			return nil // fell off the end: implicit return
		}
		if steps++; steps > max {
			return h.ProtocolError(fmt.Sprintf("handler %s exceeded %d steps (runaway loop?)", f.Name, max))
		}
		x.Counters.Instrs++
		in := &f.Code[pc]
		switch in.Op {
		case ir.OpNop:
		case ir.OpConst:
			regs[in.Dst] = Value{Kind: constKinds[in.Kind], Int: in.Int}
		case ir.OpConstStr:
			regs[in.Dst] = Value{Kind: KString, Ref: &in.Str}
		case ir.OpMove:
			regs[in.Dst] = regs[in.A]
		case ir.OpBin:
			v, err := x.binop(h, in, regs[in.A], regs[in.B])
			if err != nil {
				return err
			}
			regs[in.Dst] = v
		case ir.OpUn:
			switch in.Tok {
			case token.KWNOT:
				regs[in.Dst] = BoolVal(!regs[in.A].Bool())
			case token.MINUS:
				regs[in.Dst] = IntVal(-regs[in.A].Int)
			default:
				return fmt.Errorf("vm: bad unary op %v", in.Tok)
			}
		case ir.OpLoadVar:
			regs[in.Dst] = h.LoadVar(in.Idx)
		case ir.OpStoreVar:
			h.StoreVar(in.Idx, regs[in.A])
		case ir.OpModConst:
			regs[in.Dst] = h.ModConst(in.Idx)
		case ir.OpBuiltinVal:
			switch sema.Builtin(in.Idx) {
			case sema.BMessageTag:
				regs[in.Dst] = h.MessageTag()
			case sema.BMessageSrc:
				regs[in.Dst] = h.MessageSrc()
			default:
				return fmt.Errorf("vm: bad builtin value %d", in.Idx)
			}
		case ir.OpCall:
			if err := x.callOp(h, f, in, regs); err != nil {
				return err
			}
		case ir.OpMakeState:
			if len(in.Args) == 0 {
				regs[in.Dst] = StateValue(x.BareState(in.Idx))
				break
			}
			sv := x.Region.NewState(in.Idx, len(in.Args))
			for i, r := range in.Args {
				sv.Args[i] = regs[r]
			}
			regs[in.Dst] = StateValue(sv)
		case ir.OpMakeCont:
			regs[in.Dst] = x.makeCont(f, in, regs)
		case ir.OpSuspend:
			sv := regs[in.A].State()
			if sv == nil {
				return h.ProtocolError(fmt.Sprintf("suspend in %s to non-state value", f.Name))
			}
			if err := h.SetState(sv); err != nil {
				return err
			}
			if x.Tracer != nil {
				x.Tracer.TraceSuspend(sv)
			}
			return nil
		case ir.OpResume:
			c := regs[in.A].Cont()
			if c == nil {
				return h.ProtocolError(fmt.Sprintf("resume in %s of non-continuation value", f.Name))
			}
			if in.Idx >= 0 {
				x.Counters.ConstResumes++
			} else {
				x.Counters.Resumes++
			}
			if x.Tracer != nil {
				x.Tracer.TraceResume(c, in.Idx >= 0)
			}
			// Tail-transfer into the suspended handler: its frame replaces
			// this one, which nothing reads again (c.Saved is its own array).
			f = c.Fn
			regs = x.restore(h, c, base)
			pc = f.Frags[c.Frag].Start
			continue
		case ir.OpReturn:
			return nil
		case ir.OpJump:
			pc = in.Idx
			continue
		case ir.OpBranch:
			if regs[in.A].Bool() {
				pc = in.Idx
			} else {
				pc = in.Idx2
			}
			continue
		case ir.OpPrint:
			parts := make([]string, len(in.Args))
			for i, r := range in.Args {
				parts[i] = regs[r].String()
			}
			h.Print(strings.Join(parts, " "))
		default:
			return fmt.Errorf("vm: unknown opcode %v", in.Op)
		}
		pc++
	}
}

// constKinds is the value kind of each OpConst immediate kind.
var constKinds = [...]Kind{
	ir.KInt: KInt, ir.KBool: KBool, ir.KNode: KNode, ir.KID: KID, ir.KMsg: KMsg, ir.KAccess: KAccess,
}

// SiteCont returns the one record of a suspend site whose fragment restores
// no registers: what an OpMakeCont there yields and what a decoder installs
// for it. It is the paper's statically allocated continuation; that the
// record is immutable is what makes handing it out repeatedly sound.
func (x *Exec) SiteCont(site int) *Cont {
	if x.siteConts == nil {
		x.siteConts = make([]*Cont, len(x.Prog.Sites))
	}
	if x.siteConts[site] == nil {
		s := x.Prog.Sites[site]
		x.siteConts[site] = &Cont{Fn: s.Func, Frag: s.FragIdx, Site: site, Heap: s.Heap}
	}
	return x.siteConts[site]
}

// makeCont builds the continuation record of an OpMakeCont. The counters
// and the tracer report what the paper's compiler would have allocated,
// whatever this interpreter does (see SiteCont).
func (x *Exec) makeCont(f *ir.Func, in *ir.Instr, regs []Value) Value {
	s := x.Prog.Sites[f.Frags[in.Idx].Site]
	if s.Heap {
		x.Counters.HeapConts++
	} else {
		x.Counters.StaticConts++
	}
	var c *Cont
	if len(in.Args) == 0 {
		c = x.SiteCont(s.ID)
	} else {
		c = x.Region.NewCont(s, len(in.Args))
		for i, r := range in.Args {
			c.Saved[i] = regs[r]
		}
	}
	if x.Tracer != nil {
		x.Tracer.TraceContAlloc(c)
	}
	return ContVal(c)
}

func (x *Exec) binop(h Host, in *ir.Instr, a, b Value) (Value, error) {
	switch in.Tok {
	case token.PLUS:
		return IntVal(a.Int + b.Int), nil
	case token.MINUS:
		return IntVal(a.Int - b.Int), nil
	case token.STAR:
		return IntVal(a.Int * b.Int), nil
	case token.SLASH:
		if b.Int == 0 {
			return Value{}, h.ProtocolError("division by zero")
		}
		return IntVal(a.Int / b.Int), nil
	case token.PERCENT:
		if b.Int == 0 {
			return Value{}, h.ProtocolError("modulo by zero")
		}
		return IntVal(a.Int % b.Int), nil
	case token.EQ:
		return BoolVal(Equal(a, b)), nil
	case token.NEQ:
		return BoolVal(!Equal(a, b)), nil
	case token.LT:
		return BoolVal(a.Int < b.Int), nil
	case token.LE:
		return BoolVal(a.Int <= b.Int), nil
	case token.GT:
		return BoolVal(a.Int > b.Int), nil
	case token.GE:
		return BoolVal(a.Int >= b.Int), nil
	case token.AND:
		return BoolVal(a.Bool() && b.Bool()), nil
	case token.OR:
		return BoolVal(a.Bool() || b.Bool()), nil
	}
	return Value{}, fmt.Errorf("vm: bad binary op %v", in.Tok)
}

func (x *Exec) callOp(h Host, f *ir.Func, in *ir.Instr, regs []Value) error {
	switch in.Fn.Builtin {
	case sema.BNone:
		x.Counters.Calls++
		// The vector is carved off the top of x.args and popped after the
		// call, so a routine that re-enters the interpreter keeps its own.
		base := len(x.args)
		for _, r := range in.Args {
			x.args = append(x.args, &regs[r])
		}
		res, err := h.CallSupport(in.Fn.Name, x.args[base:])
		x.args = x.args[:base]
		if err != nil {
			return err
		}
		if in.Dst != ir.NoReg {
			regs[in.Dst] = res
		}
		return nil
	case sema.BSend, sema.BSendData:
		payload := x.Region.Values(len(in.Args) - 3)
		for i, r := range in.Args[3:] {
			payload[i] = regs[r]
		}
		return h.Send(in.Fn.Builtin == sema.BSendData, regs[in.Args[0]], regs[in.Args[1]], regs[in.Args[2]], payload)
	case sema.BSetState:
		sv := regs[in.Args[1]].State()
		if sv == nil {
			return h.ProtocolError("SetState of non-state value")
		}
		return h.SetState(sv)
	case sema.BEnqueue:
		return h.Enqueue()
	case sema.BNack:
		return h.Nack()
	case sema.BDrop:
		return h.Drop()
	case sema.BError:
		msg := regs[in.Args[0]].Str()
		extra := make([]any, 0, len(in.Args)-1)
		for _, r := range in.Args[1:] {
			extra = append(extra, regs[r].String())
		}
		if len(extra) > 0 && strings.Contains(msg, "%") {
			msg = fmt.Sprintf(strings.ReplaceAll(msg, "%s", "%v"), extra...)
		} else if len(extra) > 0 {
			msg = fmt.Sprintf("%s %v", msg, extra)
		}
		return h.ProtocolError(msg)
	case sema.BWakeUp:
		return h.WakeUp(regs[in.Args[0]])
	case sema.BAccessChange:
		return h.AccessChange(regs[in.Args[0]], sema.AccessMode(regs[in.Args[1]].Int))
	case sema.BRecvData:
		return h.RecvData(regs[in.Args[0]], sema.AccessMode(regs[in.Args[1]].Int))
	case sema.BMyNode:
		if in.Dst != ir.NoReg {
			regs[in.Dst] = h.MyNode()
		}
		return nil
	case sema.BHomeNode:
		if in.Dst != ir.NoReg {
			regs[in.Dst] = h.HomeNode(regs[in.Args[0]])
		}
		return nil
	case sema.BMsgToStr:
		if in.Dst != ir.NoReg {
			m := int(regs[in.Args[0]].Int)
			name := fmt.Sprintf("msg%d", m)
			if m >= 0 && m < len(x.Prog.Sema.Messages) {
				name = x.Prog.Sema.Messages[m].Name
			}
			regs[in.Dst] = StringVal(name)
		}
		return nil
	}
	return fmt.Errorf("vm: unknown builtin %d", in.Fn.Builtin)
}
