package stache

import (
	"fmt"

	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// Support implements the StacheSupport module: the sharer set is a bitmask
// kept in the per-block protocol variable "sharers", so it participates in
// model-checker state snapshots automatically.
type Support struct {
	sharersSlot int
	invReq      int // PUT_NO_DATA_REQ message index
}

// NewSupport builds the support module for a compiled Stache protocol (or
// any extension of it that keeps the same variable and message names).
func NewSupport(p *runtime.Protocol) (*Support, error) {
	s := &Support{sharersSlot: -1, invReq: p.MsgIndex("PUT_NO_DATA_REQ")}
	for _, v := range p.Sema().ProtVars {
		if v.Name == "sharers" {
			s.sharersSlot = v.Index
		}
	}
	if s.sharersSlot < 0 {
		return nil, fmt.Errorf("stache support: protocol lacks a 'sharers' variable")
	}
	if s.invReq < 0 {
		return nil, fmt.Errorf("stache support: protocol lacks PUT_NO_DATA_REQ")
	}
	return s, nil
}

// MustSupport panics on error.
func MustSupport(p *runtime.Protocol) *Support {
	s, err := NewSupport(p)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Support) mask(ctx *runtime.Ctx) int64 {
	return ctx.Block.Vars[s.sharersSlot].Int
}

func (s *Support) setMask(ctx *runtime.Ctx, m int64) {
	ctx.Block.Vars[s.sharersSlot] = vm.IntVal(m)
}

// Call implements runtime.Support.
func (s *Support) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	switch name {
	case "AddSharer":
		n := args[1].Int
		s.setMask(ctx, s.mask(ctx)|1<<uint(n))
		return vm.Value{}, nil
	case "RemoveSharer":
		n := args[1].Int
		s.setMask(ctx, s.mask(ctx)&^(1<<uint(n)))
		return vm.Value{}, nil
	case "ClearSharers":
		s.setMask(ctx, 0)
		return vm.Value{}, nil
	case "IsSharer":
		n := args[1].Int
		return vm.BoolVal(s.mask(ctx)&(1<<uint(n)) != 0), nil
	case "NumSharers":
		m := s.mask(ctx)
		count := int64(0)
		for ; m != 0; m &= m - 1 {
			count++
		}
		return vm.IntVal(count), nil
	case "InvalidateSharers":
		excl := args[1].Int
		id := int(args[2].Int)
		m := s.mask(ctx)
		count := int64(0)
		for n := 0; n < 64; n++ {
			if m&(1<<uint(n)) == 0 || int64(n) == excl {
				continue
			}
			ctx.Engine.SendTo(n, s.invReq, id, false)
			count++
		}
		return vm.IntVal(count), nil
	}
	return vm.Value{}, fmt.Errorf("stache support: unknown routine %q", name)
}

// ModConst implements runtime.Support (Stache declares no module constants).
func (s *Support) ModConst(ctx *runtime.Ctx, name string) vm.Value {
	return vm.Value{}
}

// NodeMaskSlots implements runtime.SymmetryDecl: 'sharers' is a node
// bitmask (bit n ↦ node n) and must be re-indexed under node permutation.
func (s *Support) NodeMaskSlots() []int { return []int{s.sharersSlot} }

// EquivariantRoutines implements runtime.SymmetryDecl. Every routine
// either tests/sets the argument node's bit in the sharer mask or
// multicasts to the mask's members — effects that commute with node and
// block permutation once the mask is re-indexed.
func (s *Support) EquivariantRoutines() []string {
	return []string{"AddSharer", "RemoveSharer", "ClearSharers", "IsSharer", "NumSharers", "InvalidateSharers"}
}
