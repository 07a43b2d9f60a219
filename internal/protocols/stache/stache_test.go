package stache_test

import (
	"fmt"
	"strings"
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

func TestCompiles(t *testing.T) {
	for _, opt := range []bool{false, true} {
		a := protocols.MustCompile("stache", opt)
		if got := len(a.Sema.States); got != 16 {
			t.Errorf("states = %d, want 16", got)
		}
		if got := len(a.Sema.Messages); got != 16 {
			t.Errorf("messages = %d, want 16", got)
		}
		if a.Stats.Sites == 0 {
			t.Errorf("no suspend sites found")
		}
	}
}

func TestSubroutineStateSharing(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	// Home_AwaitPutData serves six transitions (GET_RO, GET_RW, UPGRADE,
	// RD_FAULT, WR_FAULT, stale WR_RO_FAULT from Home_Excl);
	// Home_AwaitInvAcks serves four (UPGRADE, GET_RW, WR_RO_FAULT, stale
	// WR_FAULT from Home_RS). Hence neither is a constant-continuation
	// target.
	putData := a.Sema.StateByName("Home_AwaitPutData").Index
	invAcks := a.Sema.StateByName("Home_AwaitInvAcks").Index
	counts := map[int]int{}
	for _, s := range a.IR.Sites {
		counts[s.TargetState]++
	}
	if counts[putData] != 6 {
		t.Errorf("Home_AwaitPutData sites = %d, want 6", counts[putData])
	}
	if counts[invAcks] != 4 {
		t.Errorf("Home_AwaitInvAcks sites = %d, want 4", counts[invAcks])
	}
	for _, s := range a.IR.Sites {
		if (s.TargetState == putData || s.TargetState == invAcks) && s.Constant {
			t.Errorf("multi-entry subroutine site %d marked constant", s.ID)
		}
	}
}

// machine is a deterministic in-order loopback substrate for N nodes.
type machine struct {
	t       *testing.T
	engines []*runtime.Engine
	queue   []delivery
	access  map[[2]int]sema.AccessMode
	woken   map[[2]int]int
}

type delivery struct {
	dst int
	msg *runtime.Message
}

func newMachine(t *testing.T, nodes, blocks int, optimize bool) *machine {
	a := protocols.MustCompile("stache", optimize)
	m := &machine{t: t, access: make(map[[2]int]sema.AccessMode), woken: make(map[[2]int]int)}
	sup := stache.MustSupport(a.Protocol)
	for n := 0; n < nodes; n++ {
		m.engines = append(m.engines, runtime.NewEngine(a.Protocol, n, blocks, m, sup))
	}
	// Home nodes start with full access; caches with none.
	for n := 0; n < nodes; n++ {
		for b := 0; b < blocks; b++ {
			if m.HomeNode(b) == n {
				m.access[[2]int{n, b}] = sema.AccReadWrite
			}
		}
	}
	return m
}

func (m *machine) Send(from, dst int, msg *runtime.Message) {
	m.queue = append(m.queue, delivery{dst: dst, msg: msg})
}
func (m *machine) AccessChange(node, id int, mode sema.AccessMode) {
	m.access[[2]int{node, id}] = mode
}
func (m *machine) RecvData(node, id int, mode sema.AccessMode) {
	m.access[[2]int{node, id}] = mode
}
func (m *machine) WakeUp(node, id int)      { m.woken[[2]int{node, id}]++ }
func (m *machine) HomeNode(id int) int      { return 0 }
func (m *machine) Print(node int, s string) { m.t.Logf("node %d: %s", node, s) }

func (m *machine) pump() {
	m.t.Helper()
	for steps := 0; len(m.queue) > 0; steps++ {
		if steps > 100000 {
			m.t.Fatal("pump did not quiesce")
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		if err := m.engines[d.dst].Deliver(d.msg); err != nil {
			m.t.Fatalf("deliver to node %d: %v", d.dst, err)
		}
	}
}

func (m *machine) event(node int, name string, id int) {
	m.t.Helper()
	p := m.engines[node].Proto
	if err := m.engines[node].InjectEvent(p.MsgIndex(name), id); err != nil {
		m.t.Fatalf("event %s on node %d: %v", name, node, err)
	}
	m.pump()
}

func (m *machine) stateOf(node, id int) string {
	return m.engines[node].Blocks[id].StateName(m.engines[node].Proto)
}

// checkCoherence asserts single-writer/multiple-reader on access modes.
func (m *machine) checkCoherence(id int) {
	m.t.Helper()
	writers, readers := 0, 0
	for n := range m.engines {
		switch m.access[[2]int{n, id}] {
		case sema.AccReadWrite:
			writers++
		case sema.AccReadOnly:
			readers++
		}
	}
	if writers > 1 || (writers == 1 && readers > 0) {
		m.t.Fatalf("coherence violation on block %d: %d writers, %d readers", id, writers, readers)
	}
}

func TestReadSharing(t *testing.T) {
	m := newMachine(t, 4, 1, true)
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	m.event(3, "RD_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_RS" {
		t.Errorf("home = %s, want Home_RS", got)
	}
	for n := 1; n <= 3; n++ {
		if got := m.stateOf(n, 0); got != "Cache_RO" {
			t.Errorf("node %d = %s, want Cache_RO", n, got)
		}
		if m.access[[2]int{n, 0}] != sema.AccReadOnly {
			t.Errorf("node %d access = %v", n, m.access[[2]int{n, 0}])
		}
	}
	m.checkCoherence(0)
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newMachine(t, 4, 1, true)
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	// Node 3 writes: all sharers must be invalidated.
	m.event(3, "WR_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_Excl" {
		t.Errorf("home = %s, want Home_Excl", got)
	}
	if got := m.stateOf(3, 0); got != "Cache_RW" {
		t.Errorf("writer = %s, want Cache_RW", got)
	}
	for n := 1; n <= 2; n++ {
		if got := m.stateOf(n, 0); got != "Cache_Inv" {
			t.Errorf("node %d = %s, want Cache_Inv", n, got)
		}
	}
	m.checkCoherence(0)
	if m.woken[[2]int{3, 0}] != 1 {
		t.Errorf("writer woken %d times", m.woken[[2]int{3, 0}])
	}
}

func TestUpgrade(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	m.event(1, "WR_RO_FAULT", 0) // upgrade while node 2 shares
	if got := m.stateOf(1, 0); got != "Cache_RW" {
		t.Errorf("upgrader = %s, want Cache_RW", got)
	}
	if got := m.stateOf(2, 0); got != "Cache_Inv" {
		t.Errorf("other sharer = %s, want Cache_Inv", got)
	}
	m.checkCoherence(0)
}

func TestOwnershipMigration(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	m.event(1, "WR_FAULT", 0)
	m.event(2, "WR_FAULT", 0) // home must recall from 1, grant to 2
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("old owner = %s", got)
	}
	if got := m.stateOf(2, 0); got != "Cache_RW" {
		t.Errorf("new owner = %s", got)
	}
	m.checkCoherence(0)
}

func TestReadAfterRemoteWrite(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	m.event(1, "WR_FAULT", 0)
	m.event(2, "RD_FAULT", 0) // reader pulls block home, both share
	if got := m.stateOf(0, 0); got != "Home_RS" {
		t.Errorf("home = %s, want Home_RS", got)
	}
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("old owner = %s, want Cache_Inv", got)
	}
	if got := m.stateOf(2, 0); got != "Cache_RO" {
		t.Errorf("reader = %s, want Cache_RO", got)
	}
	m.checkCoherence(0)
}

func TestHomeFaults(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	// Remote write, then home read fault pulls it back.
	m.event(1, "WR_FAULT", 0)
	m.event(0, "RD_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle", got)
	}
	if m.access[[2]int{0, 0}] != sema.AccReadWrite {
		t.Errorf("home access = %v", m.access[[2]int{0, 0}])
	}
	// Shared by 1, home write fault invalidates.
	m.event(1, "RD_FAULT", 0)
	m.event(0, "WR_RO_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle after write", got)
	}
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("sharer = %s, want Cache_Inv", got)
	}
	m.checkCoherence(0)
}

func TestEviction(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	m.event(1, "EVICT", 0)
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("evictor = %s", got)
	}
	if got := m.stateOf(0, 0); got != "Home_RS" {
		t.Errorf("home = %s, want Home_RS (node 2 still shares)", got)
	}
	m.event(2, "EVICT", 0)
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle after last eviction", got)
	}
	// Evicted node can re-request.
	m.event(1, "RD_FAULT", 0)
	if got := m.stateOf(1, 0); got != "Cache_RO" {
		t.Errorf("re-reader = %s", got)
	}
	m.checkCoherence(0)
}

func TestRandomizedWorkloadCoherent(t *testing.T) {
	// A deterministic pseudo-random stress: nodes issue reads, writes, and
	// evictions; after each quiescent step, coherence must hold.
	const nodes, blocks = 4, 3
	m := newMachine(t, nodes, blocks, true)
	seed := uint64(12345)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	for step := 0; step < 400; step++ {
		n := rnd(nodes)
		b := rnd(blocks)
		st := m.stateOf(n, b)
		var ev string
		switch st {
		case "Cache_Inv":
			if rnd(2) == 0 {
				ev = "RD_FAULT"
			} else {
				ev = "WR_FAULT"
			}
		case "Cache_RO":
			switch rnd(3) {
			case 0:
				ev = "WR_RO_FAULT"
			case 1:
				ev = "EVICT"
			default:
				continue // read hit
			}
		case "Cache_RW":
			continue // hit
		case "Home_Idle":
			continue // home has full access
		case "Home_RS":
			if rnd(2) == 0 {
				ev = "WR_RO_FAULT"
			} else {
				continue
			}
		case "Home_Excl":
			if rnd(2) == 0 {
				ev = "RD_FAULT"
			} else {
				ev = "WR_FAULT"
			}
		default:
			continue
		}
		m.event(n, ev, b)
		m.checkCoherence(b)
	}
	// Sanity: substantial handler activity occurred.
	var handlers int64
	for _, e := range m.engines {
		handlers += e.Counters().Handlers
	}
	if handlers < 100 {
		t.Errorf("only %d handler activations in stress run", handlers)
	}
}

func TestAllocCountsOptVsUnopt(t *testing.T) {
	counts := func(optimize bool) (heap, static int64) {
		m := newMachine(t, 4, 2, optimize)
		for i := 0; i < 10; i++ {
			m.event(1+(i%3), "RD_FAULT", i%2)
			m.event(1+((i+1)%3), "WR_FAULT", i%2)
		}
		var c vm.Counters
		for _, e := range m.engines {
			c.Add(e.Counters())
		}
		return c.HeapConts, c.StaticConts
	}
	uh, us := counts(false)
	oh, os := counts(true)
	if uh == 0 || us != 0 {
		t.Errorf("unopt: heap=%d static=%d, want heap>0 static=0", uh, us)
	}
	if oh >= uh {
		t.Errorf("optimized heap allocs (%d) not below unoptimized (%d)", oh, uh)
	}
	if os == 0 {
		t.Errorf("optimized run should use static continuations")
	}
	t.Logf("heap conts: unopt=%d opt=%d (static %d)", uh, oh, os)
}

func TestSupportErrors(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	sup := stache.MustSupport(a.Protocol)
	_, err := sup.Call(&runtime.Ctx{}, "NoSuchRoutine", nil)
	if err == nil {
		t.Error("expected error for unknown routine")
	}
	// Binding refuses a declared routine the table lacks, and an entry
	// whose variable the protocol lacks.
	cas := protocols.MustCompile("stache-cas", true)
	if _, err := stache.Routines.Bind(cas.Protocol); err == nil || !strings.Contains(err.Error(), "routine CASApply, which the module does not implement") {
		t.Errorf("Routines bound to stache-cas: %v", err)
	}
	if _, err := stache.FTRoutines.Bind(a.Protocol); err == nil || !strings.Contains(err.Error(), `InvalidateSharers needs protocol variable "awaiting"`) {
		t.Errorf("FTRoutines bound to stache: %v", err)
	}
}

// TestBuggySourceDiffersOnlyInOneHandler guards the seeded-bug fixture
// against drift: the buggy variant must be the real source minus exactly
// the upgrade/invalidate race handler.
func TestBuggySourceDiffersOnlyInOneHandler(t *testing.T) {
	if stache.BuggySource == stache.Source {
		t.Fatal("buggy source identical to the real one")
	}
	if len(stache.Source)-len(stache.BuggySource) <= 0 {
		t.Fatal("buggy source should be strictly smaller")
	}
	// The removed text is the Cache_RO_To_RW PUT_NO_DATA_REQ handler.
	if !strings.Contains(stache.Source, "message PUT_NO_DATA_REQ") {
		t.Fatal("marker missing from real source")
	}
	realCount := strings.Count(stache.Source, "message PUT_NO_DATA_REQ")
	buggyCount := strings.Count(stache.BuggySource, "message PUT_NO_DATA_REQ")
	if buggyCount != realCount-1 {
		t.Errorf("buggy source removes %d handlers, want exactly 1", realCount-buggyCount)
	}
}

// TestPatchFailsNamingVariantAndAnchor: every patch operation whose anchor
// the base lacks panics with the variant's name and the anchor — a DEFAULT
// handler only counts inside the state's own body.
func TestPatchFailsNamingVariantAndAnchor(t *testing.T) {
	const base = "protocol Stache begin\nend;\n\nstate Stache.S()\nbegin\nend;\n\n" +
		"state Stache.T()\nbegin\n  message DEFAULT (id : ID; var info : INFO; src : NODE)\n  begin\n  end;\nend;\n"
	for _, c := range []struct {
		anchor string
		op     func(p *stache.Patch)
	}{
		{"NoSuchText", func(p *stache.Patch) { p.Replace("NoSuchText", "") }},
		{"state Stache.U(", func(p *stache.Patch) { p.Insert("U", "") }},
		{"state S has no DEFAULT handler", func(p *stache.Patch) { p.InsertBeforeDefault("S", "") }},
		{"  state S(", func(p *stache.Patch) { p.Drop("S") }},
		{"protocol Stache begin", func(p *stache.Patch) { p.Replace("protocol Stache begin", "protocol P begin").Declare("") }},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "v: ") || !strings.Contains(msg, c.anchor) {
					t.Errorf("anchor %q: panic %q, want one naming variant v and the anchor", c.anchor, msg)
				}
			}()
			c.op(stache.Extend("v", "Stache", base))
		}()
	}
}
