package protocols_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"teapot/internal/core"
	"teapot/internal/fuzz"
	"teapot/internal/ir"
	"teapot/internal/litmus"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
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
// with. Every routine it declares is also vouched local
// (mc.LocalSupport), which the checker's transition memo needs.
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
		local, _ := spec.Support.(mc.LocalSupport)
		for fn, f := range spec.Proto.Sema().Funcs {
			if f.Builtin == sema.BNone && (local == nil || !slices.Contains(local.LocalRoutines(), fn)) {
				t.Errorf("%s: declared routine %s is not vouched local", name, fn)
			}
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

// TestSpecSharesOneBuild: a Config compiles once per process. Spec at any
// shape hands out the same protocol with a support module of its own;
// MustCompile returns that same build; the unoptimized and no-liveness
// builds are builds of their own, each shared in turn; and a compile error
// is remembered like a build.
func TestSpecSharesOneBuild(t *testing.T) {
	e, _ := protocols.Lookup("stache")
	spec := func(e protocols.Entry, nodes, blocks int) core.RunSpec {
		t.Helper()
		s, err := e.Spec(nodes, blocks)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	small, large := spec(e, 2, 1), spec(e, 5, 3)
	if small.Proto != large.Proto {
		t.Errorf("Spec at 2n/1b and 5n/3b compiled two builds")
	}
	if small.Support.(*stache.Support) == large.Support.(*stache.Support) {
		t.Errorf("two Spec calls share one support module")
	}
	if art := protocols.MustCompile("stache", true); art.Protocol != small.Proto {
		t.Errorf("MustCompile(stache, true) is not the build Spec shares")
	}
	builds := []*runtime.Protocol{small.Proto}
	for _, c := range []struct {
		name                 string
		optimize, noLiveness bool
	}{{"Optimize=false", false, false}, {"NoLiveness", true, true}} {
		e := e
		e.Config.Optimize, e.Config.NoLiveness = c.optimize, c.noLiveness
		p := spec(e, 2, 1).Proto
		if p != spec(e, 4, 2).Proto {
			t.Errorf("%s: Spec at two shapes compiled two builds", c.name)
		}
		if slices.Contains(builds, p) {
			t.Errorf("%s: shares another Config's build", c.name)
		}
		builds = append(builds, p)
	}
	if protocols.MustCompile("stache", false).Protocol != builds[1] {
		t.Errorf("MustCompile(stache, false) is not the build Spec shares")
	}
	bad := e
	bad.Config.HomeStart = "No_Such_State"
	_, err1 := bad.Spec(2, 1)
	_, err2 := bad.Spec(2, 1)
	if err1 == nil || err1 != err2 {
		t.Errorf("a failed compile: errors %v and %v, want one remembered error", err1, err2)
	}
}

// TestSpecConcurrentFirstCallers: eight goroutines that ask for a build no
// one has compiled yet, all at once, get one protocol (and, under -race, no
// race).
func TestSpecConcurrentFirstCallers(t *testing.T) {
	e, _ := protocols.Lookup("stache-ft")
	e.Config.Name = "concurrent-first-callers.tea" // a Config no other test compiles
	protos := make([]*runtime.Protocol, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range protos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spec, err := e.Spec(2, 1)
			if err != nil {
				t.Error(err)
				return
			}
			protos[i] = spec.Proto
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range protos {
		if p == nil || p != protos[0] {
			t.Fatalf("goroutine %d got build %p, goroutine 0 got %p", i, p, protos[0])
		}
	}
}

// TestSharedBuildsStayImmutable: after every kind of run that shares a
// build — the litmus corpus in mode all, a model check with symmetry and two
// workers, a fuzz campaign — each bundled protocol's shared build still
// equals a fresh core.Compile of its Config: every handler's disassembly and
// instructions, the dispatch table, the suspend-site table and the start
// states.
func TestSharedBuildsStayImmutable(t *testing.T) {
	tests, err := litmus.LoadDir("../../testdata/litmus")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		if _, err := litmus.Run(tt, litmus.Options{Mode: "all", Seed: 1, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := protocols.Spec("stache-ft", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net, spec.Workers, spec.Symmetry = netmodel.Model{MaxDrops: 1}, 2, mc.SymmetryAuto
	if _, err := core.Check(spec); err != nil {
		t.Fatal(err)
	}
	f, err := fuzz.New(fuzz.Config{Proto: "stache", Nodes: 3, Net: netmodel.Model{MaxDrops: 1, MaxDups: 1}, Schedules: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fuzz(); err != nil {
		t.Fatal(err)
	}

	for _, e := range protocols.All() {
		for _, optimize := range []bool{true, false} {
			e.Config.Optimize = optimize
			got, want := protocols.MustCompile(e.Name, optimize), core.MustCompile(e.Config)
			if diff := buildDiff(got, want); diff != "" {
				t.Errorf("%s (Optimize=%v): the shared build changed: %s", e.Name, optimize, diff)
			}
		}
	}
}

// buildDiff names the first difference between two builds of one Config,
// "" when there is none.
func buildDiff(got, want *core.Artifacts) string {
	gp, wp := got.Protocol, want.Protocol
	if gp.HomeStart != wp.HomeStart || gp.CacheStart != wp.CacheStart {
		return fmt.Sprintf("start states %d/%d, fresh %d/%d", gp.HomeStart, gp.CacheStart, wp.HomeStart, wp.CacheStart)
	}
	g, w := gp.IR, wp.IR
	if len(g.Funcs) != len(w.Funcs) {
		return fmt.Sprintf("%d handlers, fresh %d", len(g.Funcs), len(w.Funcs))
	}
	for i := range g.Funcs {
		if gd, wd := g.Funcs[i].Disassemble(), w.Funcs[i].Disassemble(); gd != wd {
			return fmt.Sprintf("handler %s:\n%s\nfresh:\n%s", g.Funcs[i].Name, gd, wd)
		}
		// What the disassembly leaves out: an immediate on a non-const
		// instruction, positions, call signatures.
		if !reflect.DeepEqual(g.Funcs[i].Code, w.Funcs[i].Code) || !reflect.DeepEqual(g.Funcs[i].Frags, w.Funcs[i].Frags) {
			return fmt.Sprintf("handler %s: instructions or fragments differ from a fresh build", g.Funcs[i].Name)
		}
	}
	name := func(f *ir.Func) string {
		if f == nil {
			return "<none>"
		}
		return f.Name
	}
	for si := range w.Sema.States {
		for mi := -1; mi <= len(w.Sema.Messages); mi++ {
			if gn, wn := name(g.FuncFor(si, mi)), name(w.FuncFor(si, mi)); gn != wn {
				return fmt.Sprintf("dispatch (%d, %d) = %s, fresh %s", si, mi, gn, wn)
			}
		}
	}
	site := func(s *ir.SuspendSite) string {
		return fmt.Sprintf("%d %s frag %d -> state %d static %v constant %v heap %v",
			s.ID, s.Func.Name, s.FragIdx, s.TargetState, s.Static, s.Constant, s.Heap)
	}
	if len(g.Sites) != len(w.Sites) {
		return fmt.Sprintf("%d suspend sites, fresh %d", len(g.Sites), len(w.Sites))
	}
	for i := range w.Sites {
		if gs, ws := site(g.Sites[i]), site(w.Sites[i]); gs != ws {
			return fmt.Sprintf("suspend site %s, fresh %s", gs, ws)
		}
	}
	return ""
}
