package stache_test

import (
	"testing"

	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// These tests walk the reordering races the model checker found during
// development, step by step through the runtime, so the mechanisms have
// direct unit coverage in addition to exhaustive exploration.

// deliverOne pops a specific message (by tag name) from the pending queue
// and delivers it, simulating network reordering.
func (m *machine) deliverTag(name string) {
	m.t.Helper()
	p := m.engines[0].Proto
	tag := p.MsgIndex(name)
	for i, d := range m.queue {
		if d.msg.Tag == tag {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			if err := m.engines[d.dst].Deliver(d.msg); err != nil {
				m.t.Fatalf("deliver %s: %v", name, err)
			}
			return
		}
	}
	m.t.Fatalf("no %s in flight", name)
}

func (m *machine) inject(node int, name string, id int) {
	m.t.Helper()
	p := m.engines[node].Proto
	if err := m.engines[node].InjectEvent(p.MsgIndex(name), id); err != nil {
		m.t.Fatalf("event %s: %v", name, err)
	}
}

// TestPoisonedFill replays the coherence violation the checker found under
// reordering: an invalidation overtakes the grant it chases, so the node
// must discard the grant, return it through the handshake, and refetch.
func TestPoisonedFill(t *testing.T) {
	m := newMachine(t, 2, 1, true)
	// Node 1 read-faults; its request reaches the home.
	m.inject(1, "RD_FAULT", 0)
	m.deliverTag("GET_RO_REQ") // home grants; GET_RO_RESP now in flight
	// The home processor writes: it sends PUT_NO_DATA_REQ to node 1
	// while the grant is still in flight.
	m.inject(0, "WR_RO_FAULT", 0)
	// Reorder: the invalidation overtakes the grant.
	m.deliverTag("PUT_NO_DATA_REQ")
	if got := m.stateOf(1, 0); got != "Cache_Inv_To_RO_P" {
		t.Fatalf("node 1 = %s, want poisoned fill", got)
	}
	// The ack completes the home's write.
	m.deliverTag("PUT_NO_DATA_RESP")
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Fatalf("home = %s, want Home_Idle", got)
	}
	// The stale grant arrives: node 1 must NOT install it.
	m.deliverTag("GET_RO_RESP")
	if got := m.stateOf(1, 0); got != "Cache_P_Evicting" {
		t.Fatalf("node 1 = %s, want Cache_P_Evicting (grant discarded)", got)
	}
	if m.access[[2]int{1, 0}] == sema.AccReadOnly {
		t.Fatal("stale grant was installed — the coherence bug the checker found")
	}
	// Drain: handshake acked, refetch served.
	m.pump()
	if got := m.stateOf(1, 0); got != "Cache_RO" {
		t.Errorf("node 1 = %s, want Cache_RO after refetch", got)
	}
	m.checkCoherence(0)
}

// TestEvictionRefault: the processor faults on a block whose eviction
// handshake is still in flight; the fault waits for the ack and then
// re-requests.
func TestEvictionRefault(t *testing.T) {
	for _, kind := range []struct{ ev, wait, final string }{
		{"RD_FAULT", "Cache_Ev_To_RO", "Cache_RO"},
		{"WR_FAULT", "Cache_Ev_To_RW", "Cache_RW"},
	} {
		m := newMachine(t, 2, 1, true)
		m.event(1, "RD_FAULT", 0) // obtain a copy
		m.inject(1, "EVICT", 0)   // handshake starts; ack in flight
		if got := m.stateOf(1, 0); got != "Cache_RO_Evicting" {
			t.Fatalf("node 1 = %s", got)
		}
		m.inject(1, kind.ev, 0) // re-fault before the ack arrives
		if got := m.stateOf(1, 0); got != kind.wait {
			t.Fatalf("node 1 = %s, want %s", got, kind.wait)
		}
		m.pump()
		if got := m.stateOf(1, 0); got != kind.final {
			t.Errorf("%s: node 1 = %s, want %s", kind.ev, got, kind.final)
		}
		m.checkCoherence(0)
	}
}

// TestUpgradeLosesRace: a node waiting for an upgrade is invalidated; it
// answers, keeps waiting, and receives a full writable copy instead of the
// upgrade ack.
func TestUpgradeLosesRace(t *testing.T) {
	m := newMachine(t, 3, 1, true)
	m.event(1, "RD_FAULT", 0)
	m.event(2, "RD_FAULT", 0)
	// Both upgrade; deliver node 2's first so node 1 loses.
	m.inject(1, "WR_RO_FAULT", 0)
	m.inject(2, "WR_RO_FAULT", 0)
	// Home processes node 2's upgrade first.
	p := m.engines[0].Proto
	for i, d := range m.queue {
		if d.msg.Tag == p.MsgIndex("UPGRADE_REQ") && d.msg.Src == 2 {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			if err := m.engines[0].Deliver(d.msg); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	m.pump()
	// Node 2 won; node 1 was invalidated mid-upgrade but still ends RW
	// (ownership migrated to it afterwards via its queued upgrade).
	if got := m.stateOf(1, 0); got != "Cache_RW" {
		t.Errorf("node 1 = %s, want Cache_RW (served after losing the race)", got)
	}
	if got := m.stateOf(2, 0); got != "Cache_Inv" {
		t.Errorf("node 2 = %s, want Cache_Inv (recalled for node 1)", got)
	}
	m.checkCoherence(0)
}

// TestDeferredFaultRetriedInNewState: a home-side fault deferred during an
// intermediate state completes when retried after the transition (the
// stale-fault handlers).
func TestDeferredFaultRetriedInNewState(t *testing.T) {
	m := newMachine(t, 2, 1, true)
	m.event(1, "WR_FAULT", 0) // node 1 owns the block
	// The home processor reads: recall starts; while the home waits for
	// the put, deliver nothing yet.
	m.inject(0, "RD_FAULT", 0)
	if got := m.stateOf(0, 0); got != "Home_AwaitPutData" {
		t.Fatalf("home = %s", got)
	}
	// Meanwhile the home's processor... cannot fault again (stalled), but
	// node 1's put completes the recall and the home resumes to Idle.
	m.pump()
	if got := m.stateOf(0, 0); got != "Home_Idle" {
		t.Errorf("home = %s, want Home_Idle", got)
	}
	if m.woken[[2]int{0, 0}] != 1 {
		t.Errorf("home woken %d times, want 1", m.woken[[2]int{0, 0}])
	}
	m.checkCoherence(0)
}

var _ = runtime.Message{}
