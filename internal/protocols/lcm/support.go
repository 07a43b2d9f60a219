package lcm

import (
	"fmt"
	"sync/atomic"

	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// Support implements the LCMSupport module. It reuses the Stache support
// for sharer-set routines (consumers share the same bitmask — the set is
// unused during a phase) and adds phase bookkeeping.
type Support struct {
	stache *stache.Support
	nodes  int

	sharersSlot int
	holderSlot  int
	updateMsg   int

	// Merges counts reconciliations (per-run statistic). Updated
	// atomically: one Support instance serves every engine, including the
	// model checker's concurrent workers.
	Merges int64
}

// NewSupport builds the support module for a compiled LCM protocol.
func NewSupport(p *runtime.Protocol, nodes int) (*Support, error) {
	ss, err := stache.NewSupport(p)
	if err != nil {
		return nil, err
	}
	s := &Support{stache: ss, nodes: nodes, sharersSlot: -1, holderSlot: -1}
	for _, v := range p.Sema().ProtVars {
		switch v.Name {
		case "sharers":
			s.sharersSlot = v.Index
		case "holder":
			s.holderSlot = v.Index
		}
	}
	s.updateMsg = p.MsgIndex("LCM_UPDATE")
	if s.holderSlot < 0 || s.updateMsg < 0 {
		return nil, fmt.Errorf("lcm support: protocol lacks holder/LCM_UPDATE")
	}
	return s, nil
}

// MustSupport panics on error.
func MustSupport(p *runtime.Protocol, nodes int) *Support {
	s, err := NewSupport(p, nodes)
	if err != nil {
		panic(err)
	}
	return s
}

// Call implements runtime.Support.
func (s *Support) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	switch name {
	case "Merge":
		// Reconciliation of a PUT_ACCUM into the master copy. Data
		// movement is modeled by the Data flag; here we only account for
		// the merge work.
		atomic.AddInt64(&s.Merges, 1)
		return vm.Value{}, nil
	case "RecordConsumer":
		return s.stache.Call(ctx, "AddSharer", args)
	case "ClearConsumers":
		return s.stache.Call(ctx, "ClearSharers", args)
	case "PushUpdates":
		id := int(args[1].Int)
		mask := ctx.Block.Vars[s.sharersSlot].Int
		for n := 0; n < s.nodes; n++ {
			if mask&(1<<uint(n)) == 0 || n == ctx.Engine.Node {
				continue
			}
			ctx.Engine.SendTo(n, s.updateMsg, id, true)
		}
		// The home never pushes to itself; drop it from the sharer set.
		ctx.Block.Vars[s.sharersSlot] = vm.IntVal(mask &^ (1 << uint(ctx.Engine.Node)))
		return vm.Value{}, nil
	case "HasHolder":
		return vm.BoolVal(ctx.Block.Vars[s.holderSlot].Int >= 0), nil
	case "ClearHolder":
		ctx.Block.Vars[s.holderSlot] = vm.NodeVal(-1)
		return vm.Value{}, nil
	}
	return s.stache.Call(ctx, name, args)
}

// ModConst implements runtime.Support.
func (s *Support) ModConst(ctx *runtime.Ctx, name string) vm.Value {
	return s.stache.ModConst(ctx, name)
}

// NodeMaskSlots implements runtime.SymmetryDecl: 'sharers' (the consumer
// set) is a node bitmask; 'holder' is NODE-typed and permutes by value.
func (s *Support) NodeMaskSlots() []int { return []int{s.sharersSlot} }

// EquivariantRoutines implements runtime.SymmetryDecl: the LCM routines
// are mask-bit bookkeeping, a mask multicast, a NODE-typed holder
// test/clear, and a global merge counter (a statistic outside the
// checker's state), plus the delegated Stache routines.
func (s *Support) EquivariantRoutines() []string {
	return append(s.stache.EquivariantRoutines(),
		"Merge", "RecordConsumer", "ClearConsumers", "PushUpdates", "HasHolder", "ClearHolder")
}
