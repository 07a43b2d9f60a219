package update_test

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/protocols/update"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

func TestCompiles(t *testing.T) {
	for _, opt := range []bool{false, true} {
		a := protocols.MustCompile("update", opt)
		if got := len(a.Sema.States); got != 7 {
			t.Errorf("states = %d, want 7", got)
		}
		// The home never suspends: all suspend sites are cache-side.
		for _, site := range a.IR.Sites {
			if site.Func.Name == "Home.GET_REQ" || site.Func.Name == "Home.WRITE_REQ" {
				t.Errorf("home-side suspend at %s", site.Func.Name)
			}
		}
	}
}

// machine is the usual in-order loopback rig.
type machine struct {
	t       *testing.T
	engines []*runtime.Engine
	queue   []struct {
		dst int
		msg *runtime.Message
	}
	access       map[[2]int]sema.AccessMode
	messageCount int
}

func newMachine(t *testing.T, nodes int) (*machine, *runtime.Protocol) {
	a := protocols.MustCompile("update", true)
	m := &machine{t: t, access: map[[2]int]sema.AccessMode{{0, 0}: sema.AccReadWrite}}
	sup, err := update.Routines.Bind(a.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		m.engines = append(m.engines, runtime.NewEngine(a.Protocol, n, 1, m, sup))
	}
	return m, a.Protocol
}

func (m *machine) Send(from, dst int, msg *runtime.Message) {
	m.messageCount++
	m.queue = append(m.queue, struct {
		dst int
		msg *runtime.Message
	}{dst, msg})
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
			m.t.Fatal("no quiescence")
		}
		d := m.queue[0]
		m.queue = m.queue[1:]
		if err := m.engines[d.dst].Deliver(d.msg); err != nil {
			m.t.Fatalf("deliver: %v", err)
		}
	}
}

func (m *machine) event(node int, p *runtime.Protocol, name string) {
	m.t.Helper()
	if err := m.engines[node].InjectEvent(p.MsgIndex(name), 0); err != nil {
		m.t.Fatalf("event %s: %v", name, err)
	}
	m.pump()
}

func (m *machine) stateOf(p *runtime.Protocol, node int) string {
	return m.engines[node].Blocks[0].StateName(p)
}

// TestProducerConsumer: the §1 scenario. A producer writes; consumers get
// the new data in ONE message each, keeping their copies readable.
func TestProducerConsumer(t *testing.T) {
	m, p := newMachine(t, 4)
	// Consumers fetch copies.
	m.event(1, p, "RD_FAULT")
	m.event(2, p, "RD_FAULT")
	before := m.messageCount
	// Node 3 writes through.
	m.event(3, p, "WR_FAULT")
	delta := m.messageCount - before
	// WRITE_REQ + 2 UPDATEs + WRITE_ACK = 4 messages total for the write
	// serving both consumers (invalidation would need 2 invs + 2 acks +
	// the write + later 2 re-requests + 2 responses).
	if delta != 4 {
		t.Errorf("messages for the write = %d, want 4", delta)
	}
	// Consumers still hold readable copies.
	for _, n := range []int{1, 2} {
		if got := m.stateOf(p, n); got != "Cache_RO" {
			t.Errorf("consumer %d = %s, want Cache_RO", n, got)
		}
		if m.access[[2]int{n, 0}] != sema.AccReadOnly {
			t.Errorf("consumer %d access = %v", n, m.access[[2]int{n, 0}])
		}
	}
	if got := m.stateOf(p, 3); got != "Cache_RO" {
		t.Errorf("writer = %s, want Cache_RO", got)
	}
}

func TestHomeWriteUpdatesSharers(t *testing.T) {
	m, p := newMachine(t, 3)
	m.event(1, p, "RD_FAULT")
	if m.access[[2]int{0, 0}] != sema.AccReadOnly {
		t.Fatalf("home should downgrade itself while sharers exist")
	}
	m.event(0, p, "WR_RO_FAULT")
	// Sharer keeps a refreshed readable copy.
	if got := m.stateOf(p, 1); got != "Cache_RO" {
		t.Errorf("sharer = %s", got)
	}
	// Eviction returns the home to exclusive.
	m.event(1, p, "EVICT")
	if m.access[[2]int{0, 0}] != sema.AccReadWrite {
		t.Errorf("home access after last eviction = %v", m.access[[2]int{0, 0}])
	}
}

func TestModelChecked(t *testing.T) {
	spec, err := protocols.Spec("update", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, reorder := range []int{0, 1} {
		spec.Net = netmodel.Model{Reorder: reorder}
		res, err := mc.Check(spec.Config)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("reorder=%d: violation after %d states:\n%s", reorder, res.States, res.Violation)
		}
		t.Logf("reorder=%d: states=%d transitions=%d", reorder, res.States, res.Transitions)
	}
}
