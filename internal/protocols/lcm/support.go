package lcm

import (
	"sync/atomic"

	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// Support is Stache's support module bound to an LCM protocol with the
// LCMSupport routines: phase consumers (kept in the sharer set, which is
// unused during a phase), the MCC copy-holder, and a count of
// reconciliations.
type Support struct {
	*stache.Support

	// Merges counts reconciliations (per-run statistic). It is atomic: one
	// Support instance serves every engine, including the model checker's
	// concurrent workers.
	Merges atomic.Int64
}

// holder is the variable the MCC routines keep the copy-holder in.
var holder = []string{"holder"}

// NewSupport builds the support module for a compiled LCM protocol.
func NewSupport(p *runtime.Protocol) (*Support, error) {
	s := &Support{}
	sup, err := stache.Routines.With(stache.Table{
		// Reconciliation of a PUT_ACCUM into the master copy. Data movement
		// is modeled by the Data flag; here only the merge work is counted,
		// a statistic outside the checker's state (which a checker run that
		// replays a handler instead of running it counts once per run).
		"Merge": {Equivariant: true, Local: true, Body: func(stache.Call) vm.Value {
			s.Merges.Add(1)
			return vm.Value{}
		}},
		"RecordConsumer": stache.Routines["AddSharer"],
		"ClearConsumers": stache.Routines["ClearSharers"],
		// The home never pushes to itself; it drops itself from the set.
		"PushUpdates": {Vars: []string{"sharers"}, Msg: "LCM_UPDATE", Equivariant: true, Local: true, Body: func(c stache.Call) vm.Value {
			set := c.Mask(0) &^ (1 << uint(c.Engine.Node))
			c.Multicast(set, c.Arg(1), true)
			c.SetMask(0, set)
			return vm.Value{}
		}},
		"HasHolder": {Vars: holder, Equivariant: true, Local: true, Body: func(c stache.Call) vm.Value {
			return vm.BoolVal(c.Var(0).Int >= 0)
		}},
		"ClearHolder": {Vars: holder, Equivariant: true, Local: true, Body: func(c stache.Call) vm.Value {
			*c.Var(0) = vm.NodeVal(-1)
			return vm.Value{}
		}},
	}).Bind(p)
	if err != nil {
		return nil, err
	}
	s.Support = sup
	return s, nil
}

// MustSupport panics on error. A multicast walks its set's members, so the
// node count is not needed.
func MustSupport(p *runtime.Protocol, _ int) *Support {
	s, err := NewSupport(p)
	if err != nil {
		panic(err)
	}
	return s
}
