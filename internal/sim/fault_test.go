package sim_test

import (
	"reflect"
	"testing"

	"teapot/internal/core"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func runStacheFT(t *testing.T, w *sim.Workload, nodes int, net netmodel.Model, seed uint64) *tempest.Stats {
	t.Helper()
	spec, err := protocols.Spec("stache-ft", nodes, w.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	spec.Program, spec.Net, spec.Seed = w.Trace, net, seed
	stats, err := core.Simulate(spec)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return stats
}

// TestSimFaultInjectionDeterministic: the same (Config, Seed) must
// reproduce the identical run — every statistic, including the injected
// fault counts — and a different seed must still complete.
func TestSimFaultInjectionDeterministic(t *testing.T) {
	const nodes = 4
	net := netmodel.Model{MaxDrops: 8, MaxDups: 8, Delay: 2}
	w := sim.Table1Workloads(nodes, 2)[0]
	a := runStacheFT(t, w, nodes, net, 42)
	b := runStacheFT(t, w, nodes, net, 42)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	if a.Drops+a.Dups+a.Delays == 0 {
		t.Errorf("no faults injected: %+v", a)
	}
	if a.Drops > 0 && a.Timeouts == 0 {
		t.Errorf("%d drops but no timeout recovery fired: %+v", a.Drops, a)
	}
	if a.Cycles <= 0 || a.Faults == 0 {
		t.Errorf("run did not do real work: %+v", a)
	}
	c := runStacheFT(t, w, nodes, net, 7)
	if c.Cycles <= 0 {
		t.Errorf("seed 7 run did not complete: %+v", c)
	}
}

// flowSink checks that recycling message records is invisible: it follows
// every message from its Send to its Deliver by flow id, and every deferred
// one through its block's queue, and complains when a record turns up with
// a tag, block or source it was not sent with, a delivery has no send, or —
// at the end — a flow was delivered more or fewer times than it was sent
// and duplicated less dropped.
type flowSink struct {
	t      *testing.T
	sent   map[int64][3]int32 // flow -> tag, block, source
	due    map[int64]int      // flow -> deliveries still owed
	queues map[[2]int32][][2]int32
	seen   map[obs.Kind]int
}

func newFlowSink(t *testing.T) *flowSink {
	return &flowSink{t: t, sent: map[int64][3]int32{}, due: map[int64]int{},
		queues: map[[2]int32][][2]int32{}, seen: map[obs.Kind]int{}}
}

func (s *flowSink) Emit(ev obs.Event) {
	s.seen[ev.Kind]++
	at := [2]int32{ev.Node, ev.Block}
	switch ev.Kind {
	case obs.KindSend:
		if _, dup := s.sent[ev.Flow]; dup {
			s.t.Errorf("flow %#x sent twice", ev.Flow)
		}
		s.sent[ev.Flow] = [3]int32{ev.Msg, ev.Block, ev.Node}
		s.due[ev.Flow]++
	case obs.KindDrop:
		s.due[ev.Flow]--
	case obs.KindDup:
		s.due[ev.Flow]++
	case obs.KindDeliver:
		if ev.Flow == 0 {
			return // a local event, or a support routine's own send
		}
		if want, ok := s.sent[ev.Flow]; !ok || want != [3]int32{ev.Msg, ev.Block, ev.Peer} {
			s.t.Errorf("flow %#x delivered as tag %d block %d from %d; sent as %v (sent at all: %v)",
				ev.Flow, ev.Msg, ev.Block, ev.Peer, want, ok)
		}
		s.due[ev.Flow]--
	case obs.KindEnqueue:
		s.queues[at] = append(s.queues[at], [2]int32{ev.Msg, ev.Peer})
	case obs.KindDequeue:
		q := s.queues[at]
		if len(q) == 0 || q[0] != [2]int32{ev.Msg, ev.Peer} {
			s.t.Errorf("node %d block %d dequeued tag %d from %d; its queue held %v", ev.Node, ev.Block, ev.Msg, ev.Peer, q)
			return
		}
		s.queues[at] = q[1:]
	}
}

func (s *flowSink) finish(wantKinds ...obs.Kind) {
	for flow, n := range s.due {
		if n != 0 {
			s.t.Errorf("flow %#x (%v): %d deliveries unaccounted for", flow, s.sent[flow], n)
		}
	}
	for _, k := range wantKinds {
		if s.seen[k] == 0 {
			s.t.Errorf("the run had no %v event: the test exercises less than it says", k)
		}
	}
}

// holdChooser takes the benign option except that it holds back every
// other arrival it is asked about, as far as the reorder bound allows.
type holdChooser struct{ asked int }

func (c *holdChooser) Choose(kind tempest.ChoiceKind, n int) int {
	if kind != tempest.ChooseHold {
		return 0
	}
	c.asked++
	return (n - 1) * (c.asked % 2)
}

// TestRecyclingInvisible: the simulator's machine releases each record
// after its delivery and the engines send on released ones. Under the
// faults that keep a record alive in more than one place — a duplicate
// sharing its payload, a delayed or held-back delivery, a deferred message —
// every message must still arrive as it was sent.
func TestRecyclingInvisible(t *testing.T) {
	const nodes = 4
	w := sim.Table1Workloads(nodes, 2)[3] // mp3d: migratory, so queues fill
	run := func(net netmodel.Model, sched tempest.Chooser, wantKinds ...obs.Kind) {
		t.Helper()
		spec, err := protocols.Spec("stache-ft", nodes, w.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		sink := newFlowSink(t)
		spec.Program, spec.Net, spec.Seed, spec.Obs = w.Trace, net, 42, sink
		cfg := spec.SimConfig()
		cfg.Sched = sched
		if _, err := sim.Run(cfg); err != nil {
			t.Fatal(err)
		}
		sink.finish(append(wantKinds, obs.KindEnqueue, obs.KindDequeue)...)
	}
	run(netmodel.Model{MaxDrops: 2, MaxDups: 2, Delay: 2}, nil, obs.KindDrop, obs.KindDup, obs.KindDelay)
	holds := &holdChooser{}
	run(netmodel.Model{Reorder: 2}, holds)
	if holds.asked == 0 {
		t.Error("the scheduler was never offered a hold")
	}
}

// TestSimCleanNetUnchanged: a zero NetModel must not perturb a run — the
// injector is nil and no fault or timeout machinery engages.
func TestSimCleanNetUnchanged(t *testing.T) {
	const nodes = 4
	w := sim.Table1Workloads(nodes, 2)[0]
	a := runStacheFT(t, w, nodes, netmodel.Model{}, 1)
	if a.Drops+a.Dups+a.Delays+a.Timeouts != 0 {
		t.Errorf("faults on a clean network: %+v", a)
	}
	b := runStacheFT(t, w, nodes, netmodel.Model{}, 99)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed changed a clean-network run:\n%+v\n%+v", a, b)
	}
}
