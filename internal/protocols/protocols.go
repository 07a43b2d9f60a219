// Package protocols is the one table of bundled protocols: the name every
// `teapot` subcommand accepts, the source text and start states it compiles
// to, and — for the protocols that can be run and not only compiled — the
// support module, event generator and coherence judgement that wire the
// compiled protocol into a core.RunSpec, and the profile the oracle judges
// its simulated runs by.
package protocols

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"teapot/internal/core"
	"teapot/internal/mc"
	"teapot/internal/oracle"
	"teapot/internal/protocols/bufwrite"
	"teapot/internal/protocols/lcm"
	"teapot/internal/protocols/stache"
	"teapot/internal/protocols/update"
	"teapot/internal/runtime"
	"teapot/internal/tempest"
)

// MaxNodes bounds every run of a bundled protocol: the support module keeps
// node sets as bits of int64 protocol variables, so a node id of 64 or more
// would never enter a set and never be invalidated.
const MaxNodes = 64

// Entry is one bundled protocol.
type Entry struct {
	// Name is the driver-facing name ("stache", "lcm-update", ...).
	Name string
	// Config compiles the protocol (Optimize is on; callers may flip it).
	Config core.Config
	// Buggy marks the seeded-bug fixtures: protocols expected to FAIL
	// verification, shipped as negative test material. Drivers that sweep
	// "all bundled protocols" skip them unless named explicitly.
	Buggy bool

	// Support and Events build the support module and the checker's event
	// generator for a compiled protocol; both are nil for the entries that
	// exist only as compilation fixtures (see Runnable).
	Support func(p *runtime.Protocol) (runtime.Support, error)
	Events  func(p *runtime.Protocol) mc.EventGen
	// CheckCoherence is off for LCM, whose phases are deliberately
	// inconsistent.
	CheckCoherence bool
	// Oracle is how the fuzzer and the litmus harness drive and judge the
	// protocol's simulated runs; nil means not judgeable — LCM again, for
	// the same reason, and the compile-only fixtures.
	Oracle *Profile
	// HandWritten builds the hand-written state-machine engine the paper's
	// Tables 1-2 compare against (stache and lcm only).
	HandWritten func(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) tempest.Engine
}

// Profile is an entry's oracle profile: which invariants hold of its runs
// and what the random workload that exercises it includes.
type Profile struct {
	Inv   oracle.Invariants
	Evict bool // workload includes voluntary evictions
	Sync  bool // workload ends with a SYNC sweep
}

// Runnable reports whether Spec can wire the entry for execution.
func (e Entry) Runnable() bool { return e.Support != nil }

// The constructors the table below wires in, adapted to Entry's field
// types (the packages return their concrete types).
func bind(t stache.Table) func(*runtime.Protocol) (runtime.Support, error) {
	return func(p *runtime.Protocol) (runtime.Support, error) { return t.Bind(p) }
}
func stacheEvents(p *runtime.Protocol) mc.EventGen   { return stache.NewEvents(p) }
func lcmEvents(p *runtime.Protocol) mc.EventGen      { return lcm.NewEvents(p) }
func bufwriteEvents(p *runtime.Protocol) mc.EventGen { return bufwrite.NewEvents(p) }
func updateEvents(p *runtime.Protocol) mc.EventGen   { return update.NewEvents(p) }
func stacheHW(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) tempest.Engine {
	return stache.NewHW(p, nodes, blocks, m)
}
func lcmHW(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) tempest.Engine {
	return lcm.NewHW(p, nodes, blocks, m)
}

// registry builds the table once per process. It compiles nothing (builds
// are memoized apart, per Config, by build), but assembling the four LCM
// source texts takes a millisecond, and Lookup is on the path of every Spec
// call.
var registry = sync.OnceValue(func() []Entry {
	cfg := func(name, src, home string) core.Config {
		return core.Config{
			Name: name + ".tea", Source: src, Optimize: true,
			HomeStart: home, CacheStart: "Cache_Inv",
		}
	}
	// Invalidation protocols get the full oracle; write-through and buffered
	// protocols propagate values asynchronously, so only the access-control
	// invariant applies to them.
	invalidation := &Profile{Inv: oracle.AllInvariants(), Evict: true}
	return []Entry{
		{Name: "stache", Config: cfg("stache", stache.Source, "Home_Idle"),
			Support: bind(stache.Routines), Events: stacheEvents, CheckCoherence: true, Oracle: invalidation, HandWritten: stacheHW},
		{Name: "stache-ft", Config: cfg("stache-ft", stache.FTSource, "Home_Idle"),
			Support: bind(stache.FTRoutines), Events: stacheEvents, CheckCoherence: true, Oracle: invalidation},
		{Name: "stache-cas", Config: cfg("stache-cas", stache.CASSource, "Home_Idle")},
		// Not buggy — it verifies — but deliberately NOT node-symmetric:
		// the negative fixture for the model checker's certificate-gated
		// symmetry reduction (see internal/analysis.ProveSymmetry).
		{Name: "stache-asym", Config: cfg("stache-asym", stache.AsymSource, "Home_Idle"),
			Support: bind(stache.Routines), Events: stacheEvents, CheckCoherence: true, Oracle: invalidation},
		{Name: "stache-buggy", Config: cfg("stache-buggy", stache.BuggySource, "Home_Idle"), Buggy: true,
			Support: bind(stache.Routines), Events: stacheEvents, CheckCoherence: true, Oracle: invalidation},
		{Name: "stache-ft-buggy", Config: cfg("stache-ft-buggy", stache.FTBuggySource, "Home_Idle"), Buggy: true,
			Support: bind(stache.FTRoutines), Events: stacheEvents, CheckCoherence: true, Oracle: invalidation},
		{Name: "lcm", Config: cfg("lcm", lcm.Source(lcm.Base), "Home_Idle"),
			Support: bind(lcm.Routines), Events: lcmEvents, HandWritten: lcmHW},
		{Name: "lcm-update", Config: cfg("lcm-update", lcm.Source(lcm.Update), "Home_Idle")},
		{Name: "lcm-mcc", Config: cfg("lcm-mcc", lcm.Source(lcm.MCC), "Home_Idle"),
			Support: bind(lcm.Routines), Events: lcmEvents},
		{Name: "lcm-both", Config: cfg("lcm-both", lcm.Source(lcm.Both), "Home_Idle")},
		// Buffered-write adds no support routines, only a counter variable.
		{Name: "bufwrite", Config: cfg("bufwrite", bufwrite.Source, "Home_Idle"),
			Support: bind(stache.Routines), Events: bufwriteEvents, CheckCoherence: true,
			Oracle: &Profile{Inv: oracle.SWMROnly(), Sync: true}},
		{Name: "update", Config: cfg("update", update.Source, "Home"),
			Support: bind(update.Routines), Events: updateEvents, CheckCoherence: true,
			Oracle: &Profile{Inv: oracle.SWMROnly()}},
	}
})

// All returns the bundled protocols in a fixed order (a copy: an Entry is
// a value, and callers flip Config.Optimize on theirs).
func All() []Entry { return slices.Clone(registry()) }

// Lookup finds a bundled protocol by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// MustCompile returns a bundled protocol's build, optimized or not (the one
// Spec shares), and panics on an unknown name or a compile error: for tests
// and examples, whose names are literals and whose sources the table's own
// tests compile.
func MustCompile(name string, optimize bool) *core.Artifacts {
	e, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("protocols: no bundled protocol %q", name))
	}
	e.Config.Optimize = optimize
	art, err := build(e.Config)
	if err != nil {
		panic(err)
	}
	return art
}

// builds memoizes compilation per process: a core.Config (a comparable
// value, source text and flags included) maps to a sync.OnceValues over
// core.Compile, so concurrent first callers compile once and a compile
// error is remembered like a build.
var builds sync.Map

// build returns the process's one build of cfg. The artifacts are shared by
// every caller and read-only: a caller that changes IR compiles its own copy
// with core.Compile.
func build(cfg core.Config) (*core.Artifacts, error) {
	f, ok := builds.Load(cfg)
	if !ok {
		f, _ = builds.LoadOrStore(cfg, sync.OnceValues(func() (*core.Artifacts, error) { return core.Compile(cfg) }))
	}
	return f.(func() (*core.Artifacts, error))()
}

// names lists, in registry order, the entries keep accepts. It compiles
// nothing, so help texts and error messages can quote it.
func names(keep func(Entry) bool) []string {
	var out []string
	for _, e := range registry() {
		if keep(e) {
			out = append(out, e.Name)
		}
	}
	return out
}

// Names lists every registered name.
func Names() []string { return names(func(Entry) bool { return true }) }

// RunnableNames lists the names Spec accepts: the registry minus the
// compile-only fixtures.
func RunnableNames() []string { return names(Entry.Runnable) }

// OracleProfile returns the named protocol's oracle profile, refusing a name
// that has none — unknown ones included — with the names that do.
func OracleProfile(name string) (Profile, error) {
	if e, _ := Lookup(name); e.Oracle != nil {
		return *e.Oracle, nil
	}
	return Profile{}, fmt.Errorf("no oracle profile for protocol %q (judgeable: %s)", name,
		strings.Join(names(func(e Entry) bool { return e.Oracle != nil }), ", "))
}

// Spec is Lookup followed by Entry.Spec; a name Lookup does not know is
// refused the way a compile-only one is.
func Spec(name string, nodes, blocks int) (core.RunSpec, error) {
	e, ok := Lookup(name)
	if !ok {
		e = Entry{Name: name}
	}
	return e.Spec(nodes, blocks)
}

// Spec wires the entry's build (as Config says: flip Config.Optimize first
// for the unoptimized build) with a new support module and event generator
// into a core.RunSpec, the same way for every caller. Each Config compiles
// once per process, and the protocol in the spec is shared and read-only.
// The caller fills the run-shape knobs (Net, Workers, Seed, Program, ...) on
// the returned spec.
func (e Entry) Spec(nodes, blocks int) (core.RunSpec, error) {
	if !e.Runnable() {
		return core.RunSpec{}, fmt.Errorf("no runnable spec for protocol %q (runnable: %s)",
			e.Name, strings.Join(RunnableNames(), ", "))
	}
	if nodes < 1 || nodes > MaxNodes {
		return core.RunSpec{}, fmt.Errorf("-nodes %d: want 1..%d (sharer sets are %d-bit masks)", nodes, MaxNodes, MaxNodes)
	}
	if blocks < 1 {
		return core.RunSpec{}, fmt.Errorf("-blocks %d: want at least 1", blocks)
	}
	art, err := build(e.Config)
	if err != nil {
		return core.RunSpec{}, err
	}
	sup, err := e.Support(art.Protocol)
	if err != nil {
		return core.RunSpec{}, err
	}
	return core.RunSpec{Config: mc.Config{
		Proto: art.Protocol, Support: sup, Events: e.Events(art.Protocol),
		Nodes: nodes, Blocks: blocks, CheckCoherence: e.CheckCoherence,
	}}, nil
}
