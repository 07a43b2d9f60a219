package protocols_test

import (
	"slices"
	"strings"
	"testing"

	"teapot/internal/ir"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// TestSpecWiresEveryRunnableEntry: Spec accepts exactly the entries that
// carry wiring, hands back a complete spec for each, and refuses the
// compile-only fixtures and unknown names alike, listing what it accepts.
func TestSpecWiresEveryRunnableEntry(t *testing.T) {
	runnable := strings.Join(protocols.RunnableNames(), ", ")
	for _, name := range append(protocols.Names(), "no-such-proto") {
		e, _ := protocols.Lookup(name)
		spec, err := protocols.Spec(name, 2, 1)
		if !e.Runnable() {
			if err == nil || !strings.Contains(err.Error(), "(runnable: "+runnable+")") {
				t.Errorf("%s: err = %v, want a refusal listing %s", name, err, runnable)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Proto == nil || spec.Support == nil || spec.Events == nil || spec.Nodes != 2 || spec.Blocks != 1 {
			t.Errorf("%s: incomplete spec %+v", name, spec)
		}
		if want := !strings.HasPrefix(name, "lcm"); spec.CheckCoherence != want {
			t.Errorf("%s: CheckCoherence = %v, want %v", name, spec.CheckCoherence, want)
		}
		if (e.HandWritten != nil) != (name == "stache" || name == "lcm") {
			t.Errorf("%s: hand-written engine present = %v", name, e.HandWritten != nil)
		}
	}
}

// TestSpecHonoursOptimize: Entry.Spec compiles what Entry.Config says, so
// the unoptimized build is the same entry with the flag flipped: every
// continuation record heap-allocated, where the optimized build makes some
// static.
func TestSpecHonoursOptimize(t *testing.T) {
	e, _ := protocols.Lookup("stache")
	for _, optimize := range []bool{true, false} {
		e.Config.Optimize = optimize
		spec, err := e.Spec(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		heap := 0
		for _, s := range spec.Proto.IR.Sites {
			if s.Heap {
				heap++
			}
		}
		if allHeap := heap == len(spec.Proto.IR.Sites); allHeap == optimize {
			t.Errorf("Optimize=%v compiled %d of %d sites heap-allocating", optimize, heap, len(spec.Proto.IR.Sites))
		}
	}
}

// TestSupportWiring: for every runnable entry, the module Spec wires answers
// every support routine the compiled IR calls and every routine it vouches
// for, and the vouch — routines and node-set variables — is the one pinned
// here, which the symmetry reduction of every bundled protocol was measured
// with.
func TestSupportWiring(t *testing.T) {
	stacheVouch := []string{"AddSharer", "ClearSharers", "InvalidateSharers", "IsSharer", "NumSharers", "RemoveSharer"}
	ftVouch := append(slices.Clone(stacheVouch), "ResendInvalidates", "TakeAwaiting")
	lcmVouch := append(slices.Clone(stacheVouch), "ClearConsumers", "ClearHolder", "HasHolder", "Merge", "PushUpdates", "RecordConsumer")
	sharers := []string{"sharers"}
	want := map[string]struct{ vouch, sets []string }{
		"stache":          {stacheVouch, sharers},
		"stache-ft":       {ftVouch, []string{"sharers", "awaiting"}},
		"stache-asym":     {stacheVouch, sharers},
		"stache-buggy":    {stacheVouch, sharers},
		"stache-ft-buggy": {ftVouch, []string{"sharers", "awaiting"}},
		"lcm":             {lcmVouch, sharers},
		"lcm-mcc":         {lcmVouch, sharers},
		"bufwrite":        {stacheVouch, sharers},
		"update":          {[]string{"AddSharer", "IsSharer", "NumSharers", "RemoveSharer", "SendUpdates"}, sharers},
	}
	for _, name := range protocols.RunnableNames() {
		spec, err := protocols.Spec(name, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		decl, ok := spec.Support.(runtime.SymmetryDecl)
		if !ok {
			t.Errorf("%s: the support module vouches for nothing", name)
			continue
		}
		vouch := slices.Clone(decl.EquivariantRoutines())
		slices.Sort(vouch)
		var sets []string
		for _, slot := range decl.NodeMaskSlots() {
			sets = append(sets, spec.Proto.Sema().ProtVars[slot].Name)
		}
		w := want[name]
		slices.Sort(w.vouch)
		if !slices.Equal(vouch, w.vouch) || !slices.Equal(sets, w.sets) {
			t.Errorf("%s: vouches for %v over %v, want %v over %v", name, vouch, sets, w.vouch, w.sets)
		}
		var called []string
		for _, f := range spec.Proto.IR.Funcs {
			for _, in := range f.Code {
				if in.Op == ir.OpCall && in.Fn.Builtin == sema.BNone && !slices.Contains(called, in.Fn.Name) {
					called = append(called, in.Fn.Name)
				}
			}
		}
		if len(called) == 0 {
			t.Errorf("%s: the IR calls no support routine", name)
		}
		e := runtime.NewEngine(spec.Proto, 0, 1, nopMachine{}, spec.Support)
		ctx := &runtime.Ctx{Engine: e, Block: e.Blocks[0]}
		for _, r := range append(called, vouch...) {
			args := make([]*vm.Value, len(spec.Proto.Sema().Funcs[r].Sig.Params))
			for i := range args {
				args[i] = &vm.Value{}
			}
			if _, err := spec.Support.Call(ctx, r, args); err != nil {
				t.Errorf("%s: %s: %v", name, r, err)
			}
		}
	}
}

// nopMachine is a runtime.Machine on which every operation is a no-op.
type nopMachine struct{}

func (nopMachine) Send(int, int, *runtime.Message)        {}
func (nopMachine) AccessChange(int, int, sema.AccessMode) {}
func (nopMachine) RecvData(int, int, sema.AccessMode)     {}
func (nopMachine) WakeUp(int, int)                        {}
func (nopMachine) HomeNode(id int) int                    { return 0 }
func (nopMachine) Print(int, string)                      {}

// TestSpecRefusesBadShape: a node id past bit 63 would never enter a sharer
// mask, and a machine needs a node and a block.
func TestSpecRefusesBadShape(t *testing.T) {
	for _, c := range []struct {
		nodes, blocks int
		want          string
	}{
		{0, 1, "-nodes 0: want 1..64"},
		{-1, 1, "-nodes -1: want 1..64"},
		{65, 1, "-nodes 65: want 1..64"},
		{2, 0, "-blocks 0: want at least 1"},
		{2, -1, "-blocks -1: want at least 1"},
	} {
		if _, err := protocols.Spec("stache", c.nodes, c.blocks); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Spec(stache, %d, %d): err = %v, want %q", c.nodes, c.blocks, err, c.want)
		}
	}
	if _, err := protocols.Spec("stache", 64, 1); err != nil {
		t.Errorf("64 nodes: %v", err)
	}
}

// TestOracleProfiles pins the judgeability boundary: a runnable protocol has
// an oracle profile exactly when the checker judges its coherence (LCM,
// whose phases are deliberately inconsistent, has neither), every profile
// includes the access-control invariant, and a refusal lists the names that
// have one. A table row that sets CheckCoherence and forgets the profile —
// as stache-asym's did while the profiles were a switch in internal/fuzz —
// fails here.
func TestOracleProfiles(t *testing.T) {
	var judgeable []string
	for _, e := range protocols.All() {
		if e.Oracle != nil {
			judgeable = append(judgeable, e.Name)
		}
		if want := e.Runnable() && e.CheckCoherence; (e.Oracle != nil) != want {
			t.Errorf("%s: runnable %v, CheckCoherence %v, but oracle profile present: %v",
				e.Name, e.Runnable(), e.CheckCoherence, e.Oracle != nil)
		}
		prof, err := protocols.OracleProfile(e.Name)
		if (err == nil) != (e.Oracle != nil) {
			t.Errorf("%s: OracleProfile err = %v with profile present: %v", e.Name, err, e.Oracle != nil)
		}
		if err == nil && !prof.Inv.SWMR {
			t.Errorf("%s: profile %+v does not judge SWMR", e.Name, prof)
		}
	}
	want := "(judgeable: " + strings.Join(judgeable, ", ") + ")"
	for _, name := range []string{"lcm", "lcm-mcc", "stache-cas", "no-such-proto"} {
		if _, err := protocols.OracleProfile(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a refusal listing %s", name, err, want)
		}
	}
	if !strings.Contains(want, "stache-asym") {
		t.Errorf("stache-asym is not judgeable: %s", want)
	}
}
