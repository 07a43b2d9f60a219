package stache

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// Support is the node-set support module every bundled protocol runs with.
// Its routines keep sets of nodes as bitmasks in per-block protocol
// variables (bit n ↦ node n), so the sets take part in model-checker state
// snapshots, and multicast to their members. A protocol's routines are the
// entries of a Table — Stache's are Routines, and each variant adds its own
// — and what the module vouches for under symmetry reduction
// (runtime.SymmetryDecl) and to the checker's transition memo
// (mc.LocalSupport) is read off the entries it was bound with, so the
// vouches cannot drift from what is implemented.
type Support struct {
	routines []*bound // by name
	vouched  []string // the bound entries marked Equivariant, by name
	local    []string // the bound entries marked Local, by name
	masks    []int    // the int-typed variables the bound entries name, sorted
}

// Routine is one entry of a Table.
type Routine struct {
	// Vars names the per-block protocol variables Body reads or writes, in
	// the order Call.Var numbers them; an int-typed one holds a node set.
	Vars []string
	// Msg names the message Body multicasts, if any.
	Msg string
	// Equivariant vouches that the routine commutes with node and block
	// permutation once its node sets are re-indexed.
	Equivariant bool
	// Local vouches that Body reads nothing but its Call — the engine,
	// block and message of its Ctx, and its arguments — and acts only
	// through them, so a run replayed from the checker's transition memo
	// leaves everything as running Body would.
	Local bool
	Body  func(c Call) vm.Value
}

// Table maps routine names, as a protocol's modules declare them, to their
// entries.
type Table map[string]Routine

// With returns t extended by more; an entry of more replaces t's entry of
// the same name.
func (t Table) With(more Table) Table {
	out := maps.Clone(t)
	maps.Copy(out, more)
	return out
}

// bound is an entry resolved against one compiled protocol.
type bound struct {
	Routine
	name string
	vars []int // the slots of Vars
	msg  int   // the index of Msg
}

// Bind resolves the entries of the routines p's modules declare against p's
// variables and messages. A declared routine the table lacks, or an entry
// naming a variable or message p lacks, is an error. Entries p does not
// declare are left out: the module neither answers nor vouches for them.
func (t Table) Bind(p *runtime.Protocol) (*Support, error) {
	sp := p.Sema()
	s := &Support{}
	var declared []string
	for name, f := range sp.Funcs {
		if f.Builtin == sema.BNone {
			declared = append(declared, name)
		}
	}
	slices.Sort(declared)
	for _, name := range declared {
		r, ok := t[name]
		if !ok {
			return nil, fmt.Errorf("support: protocol %s declares routine %s, which the module does not implement", sp.ProtoName, name)
		}
		b := &bound{Routine: r, name: name, msg: -1}
		for _, v := range r.Vars {
			i := slices.IndexFunc(sp.ProtVars, func(pv *sema.VarSym) bool { return pv.Name == v })
			if i < 0 {
				return nil, fmt.Errorf("support: routine %s needs protocol variable %q", name, v)
			}
			b.vars = append(b.vars, i)
			if sp.ProtVars[i].Type.Kind == sema.TInt && !slices.Contains(s.masks, i) {
				s.masks = append(s.masks, i)
			}
		}
		if r.Msg != "" {
			if b.msg = p.MsgIndex(r.Msg); b.msg < 0 {
				return nil, fmt.Errorf("support: routine %s needs message %s", name, r.Msg)
			}
		}
		s.routines = append(s.routines, b)
		if r.Equivariant {
			s.vouched = append(s.vouched, name)
		}
		if r.Local {
			s.local = append(s.local, name)
		}
	}
	slices.Sort(s.masks)
	return s, nil
}

// Call is one invocation of a routine, as its Body sees it. Its methods take
// a pointer so that the inlined accessors do not copy it.
type Call struct {
	*runtime.Ctx
	Args []*vm.Value
	r    *bound
}

// Var is the current block's variable Vars[i].
func (c *Call) Var(i int) *vm.Value { return &c.Block.Vars[c.r.vars[i]] }

// Mask is the node set Vars[i] holds.
func (c *Call) Mask(i int) int64 { return c.Var(i).Int }

// SetMask makes set the node set Vars[i] holds.
func (c *Call) SetMask(i int, set int64) { *c.Var(i) = vm.IntVal(set) }

// Arg is argument i as an integer: a node id, a block id, a number.
func (c *Call) Arg(i int) int64 { return c.Args[i].Int }

// Bit is the set whose one member is the node argument i names.
func (c *Call) Bit(i int) int64 { return 1 << uint(c.Arg(i)) }

// Multicast sends Msg about block id to every member of set in ascending
// order, carrying the block's data if data is set, and returns how many it
// sent.
func (c *Call) Multicast(set, id int64, data bool) int64 {
	for m := uint64(set); m != 0; m &= m - 1 {
		c.Engine.SendTo(bits.TrailingZeros64(m), c.r.msg, int(id), data)
	}
	return int64(bits.OnesCount64(uint64(set)))
}

// sharers is the variable Stache's routines keep the sharer set in.
var sharers = []string{"sharers"}

// Routines is StacheSupport: the sharer set, and the invalidation multicast.
var Routines = Table{
	"AddSharer": {Vars: sharers, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		c.SetMask(0, c.Mask(0)|c.Bit(1))
		return vm.Value{}
	}},
	"RemoveSharer": {Vars: sharers, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		c.SetMask(0, c.Mask(0)&^c.Bit(1))
		return vm.Value{}
	}},
	"ClearSharers": {Vars: sharers, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		c.SetMask(0, 0)
		return vm.Value{}
	}},
	"IsSharer": {Vars: sharers, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		return vm.BoolVal(c.Mask(0)&c.Bit(1) != 0)
	}},
	"NumSharers": {Vars: sharers, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		return vm.IntVal(int64(bits.OnesCount64(uint64(c.Mask(0)))))
	}},
	"InvalidateSharers": {Vars: sharers, Msg: "PUT_NO_DATA_REQ", Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		return vm.IntVal(c.Multicast(c.Mask(0)&^c.Bit(1), c.Arg(2), false))
	}},
}

// MustSupport binds Routines to p and panics on error.
func MustSupport(p *runtime.Protocol) *Support {
	s, err := Routines.Bind(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Call implements runtime.Support.
func (s *Support) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	for _, r := range s.routines {
		if r.name == name {
			return r.Body(Call{ctx, args, r}), nil
		}
	}
	return vm.Value{}, fmt.Errorf("support: unknown routine %q", name)
}

// ModConst implements runtime.Support (no bundled module declares a
// constant).
func (s *Support) ModConst(*runtime.Ctx, string) vm.Value { return vm.Value{} }

// NodeMaskSlots implements runtime.SymmetryDecl: the node sets, which are
// re-indexed bit by bit under node permutation.
func (s *Support) NodeMaskSlots() []int { return s.masks }

// EquivariantRoutines implements runtime.SymmetryDecl.
func (s *Support) EquivariantRoutines() []string { return s.vouched }

// LocalRoutines implements mc.LocalSupport.
func (s *Support) LocalRoutines() []string { return s.local }
