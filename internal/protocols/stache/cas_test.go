package stache_test

import (
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

func TestCASCompiles(t *testing.T) {
	a := protocols.MustCompile("stache-cas", true)
	cns := a.Sema.MessageByName("CNS_REQ")
	if cns == nil || len(cns.Payload) != 2 {
		t.Fatalf("CNS_REQ payload = %v", cns)
	}
	resp := a.Sema.MessageByName("CNS_RESP")
	if resp == nil || len(resp.Payload) != 1 {
		t.Fatalf("CNS_RESP payload = %v", resp)
	}
}

// casMachine reuses the stache test machine with the CAS protocol.
func newCASMachine(t *testing.T, nodes, blocks int) (*machine, *stache.CASSupport) {
	t.Helper()
	a := protocols.MustCompile("stache-cas", true)
	sup, err := stache.NewCASSupport(a.Protocol)
	if err != nil {
		t.Fatalf("support: %v", err)
	}
	m := &machine{t: t, access: make(map[[2]int]sema.AccessMode), woken: make(map[[2]int]int)}
	for n := 0; n < nodes; n++ {
		m.engines = append(m.engines, runtime.NewEngine(a.Protocol, n, blocks, m, sup))
	}
	return m, sup
}

func (m *machine) cas(node, id int, old, new int64) {
	m.t.Helper()
	p := m.engines[node].Proto
	err := m.engines[node].InjectEvent(p.MsgIndex("CAS_EV"), id,
		vm.IntVal(old), vm.IntVal(new))
	if err != nil {
		m.t.Fatalf("cas: %v", err)
	}
	m.pump()
}

func TestCASFromIdle(t *testing.T) {
	m, sup := newCASMachine(t, 3, 1)
	sup.Words[0] = 10
	m.cas(1, 0, 10, 20) // succeeds
	if sup.Words[0] != 20 {
		t.Errorf("word = %d, want 20", sup.Words[0])
	}
	if !sup.Results[[2]int{1, 0}] {
		t.Error("node 1 should see success")
	}
	m.cas(2, 0, 10, 30) // fails (word is 20)
	if sup.Words[0] != 20 {
		t.Errorf("word = %d after failed CAS", sup.Words[0])
	}
	if sup.Results[[2]int{2, 0}] {
		t.Error("node 2 should see failure")
	}
}

func TestCASForcesIdleFromShared(t *testing.T) {
	m, sup := newCASMachine(t, 3, 1)
	sup.Words[0] = 1
	// Two readers share the block; a CAS must invalidate them first.
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_RS" {
		t.Fatalf("home = %s", got)
	}
	m.cas(1, 0, 1, 2)
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle after CAS", got)
	}
	if got := m.stateOf(2, 0); got != "Cache_Inv" {
		t.Errorf("other sharer = %s, want Cache_Inv", got)
	}
	if sup.Words[0] != 2 {
		t.Errorf("word = %d, want 2", sup.Words[0])
	}
}

func TestCASRecallsOwner(t *testing.T) {
	m, sup := newCASMachine(t, 3, 1)
	sup.Words[0] = 5
	m.event(1, "WR_FAULT", 0) // node 1 owns the block
	m.cas(2, 0, 5, 6)
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("old owner = %s, want Cache_Inv", got)
	}
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle", got)
	}
	if sup.Words[0] != 6 || !sup.Results[[2]int{2, 0}] {
		t.Errorf("word = %d, result = %v", sup.Words[0], sup.Results[[2]int{2, 0}])
	}
}

func TestCASWhileOwnerIssuesCAS(t *testing.T) {
	// The owner itself issues a CAS: the home recalls the owner's copy
	// while the owner waits in Cache_AwaitCNS — the PUT_DATA_REQ handler
	// there keeps the protocol live.
	m, sup := newCASMachine(t, 2, 1)
	sup.Words[0] = 7
	m.event(1, "WR_FAULT", 0)
	m.cas(1, 0, 7, 8)
	if sup.Words[0] != 8 {
		t.Errorf("word = %d, want 8", sup.Words[0])
	}
	if got := m.stateOf(1, 0); got != "Cache_Inv" {
		t.Errorf("node 1 = %s, want Cache_Inv", got)
	}
}
