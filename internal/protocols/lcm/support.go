package lcm

import (
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// holder is the variable the MCC routines keep the copy-holder in.
var holder = []string{"holder"}

// Routines is LCMSupport: Stache's routines with the reconciliation, the
// phase consumers (kept in the sharer set, which is unused during a phase)
// and the MCC copy-holder.
var Routines = stache.Routines.With(stache.Table{
	// Reconciliation of a PUT_ACCUM into the master copy. Data movement is
	// modeled by the Data flag, so there is nothing left to do here.
	"Merge":          {Equivariant: true, Local: true, Body: func(stache.Call) vm.Value { return vm.Value{} }},
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
})

// MustSupport binds Routines to p and panics on error. A multicast walks its
// set's members, so the node count is not needed.
func MustSupport(p *runtime.Protocol, _ int) *stache.Support {
	s, err := Routines.Bind(p)
	if err != nil {
		panic(err)
	}
	return s
}
