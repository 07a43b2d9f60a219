// Package tempest is a deterministic discrete-event simulation of a
// Tempest-style multiprocessor (Hill, Larus & Wood; the substrate Blizzard
// implements on the CM-5): N nodes, fine-grain access control on shared
// blocks, a message-passing network with configurable latency, and
// user-level protocol handlers that execute on the faulting/receiving node
// and charge cycles according to a cost model.
//
// The paper evaluated Teapot on Blizzard-E and on "a detailed architectural
// simulator of a multiprocessor that implements the Tempest interface";
// this package plays the role of the latter. All execution is deterministic
// (no wall-clock, no map iteration), so benchmark results are reproducible
// bit-for-bit.
package tempest

import (
	"fmt"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// CostCounters are the abstract work counters an engine reports; the cost
// model converts deltas into cycles.
type CostCounters struct {
	Instrs       int64 // protocol "statements" executed
	Handlers     int64 // handler activations
	HeapConts    int64 // dynamically allocated continuation records
	StaticConts  int64 // statically allocated continuation records
	Resumes      int64 // indirect resumes
	ConstResumes int64 // direct (inlined) resumes
	QueueRecords int64 // deferred-queue records
	Sends        int64 // messages sent
	Calls        int64 // support-routine invocations
}

// Add returns c + o.
func (c CostCounters) Add(o CostCounters) CostCounters {
	return CostCounters{
		Instrs:       c.Instrs + o.Instrs,
		Handlers:     c.Handlers + o.Handlers,
		HeapConts:    c.HeapConts + o.HeapConts,
		StaticConts:  c.StaticConts + o.StaticConts,
		Resumes:      c.Resumes + o.Resumes,
		ConstResumes: c.ConstResumes + o.ConstResumes,
		QueueRecords: c.QueueRecords + o.QueueRecords,
		Sends:        c.Sends + o.Sends,
		Calls:        c.Calls + o.Calls,
	}
}

// CostModel converts counter deltas into cycles. The absolute values are a
// documented fiction; what matters for Tables 1–2 is that hand-written and
// Teapot protocols share every term except the ones Teapot actually adds
// (interpretive dispatch, continuation records, resume indirection).
type CostModel struct {
	MemAccess    int64 // satisfied load/store
	FaultTrap    int64 // access-fault trap + protocol entry
	Dispatch     int64 // handler dispatch (table lookup, argument setup)
	PerInstr     int64 // per protocol statement
	HeapCont     int64 // allocate+free one heap continuation record
	StaticCont   int64 // initialize a static continuation record
	Resume       int64 // indirect resume (function pointer + restore)
	ConstResume  int64 // inlined resume
	QueueRecord  int64 // allocate+free one deferred-queue record
	SendOverhead int64 // per message send
	SupportCall  int64 // per support-routine invocation (call overhead)
	NetLatency   int64 // network transit time
	// TimeoutInterval is how long a block sits in a TIMEOUT-handling state
	// before the timer fires (0 = 10 × NetLatency: long enough that a
	// round-trip on a healthy network always beats it).
	TimeoutInterval int64
}

// DefaultCost is calibrated so protocol processing is a minority of run
// time (as on real hardware) and the Teapot-vs-C deltas land in the
// paper's observed 2–15% range.
var DefaultCost = CostModel{
	MemAccess:    1,
	FaultTrap:    100,
	Dispatch:     30,
	PerInstr:     4,
	HeapCont:     60,
	StaticCont:   6,
	Resume:       24,
	ConstResume:  4,
	QueueRecord:  40,
	SendOverhead: 40,
	SupportCall:  10,
	NetLatency:   120,

	TimeoutInterval: 1200,
}

// Cycles converts a counter delta into cycles.
func (cm CostModel) Cycles(d CostCounters) int64 {
	return d.Handlers*cm.Dispatch +
		d.Instrs*cm.PerInstr +
		d.HeapConts*cm.HeapCont +
		d.StaticConts*cm.StaticCont +
		d.Resumes*cm.Resume +
		d.ConstResumes*cm.ConstResume +
		d.QueueRecords*cm.QueueRecord +
		d.Sends*cm.SendOverhead +
		d.Calls*cm.SupportCall
}

// Engine is a per-machine protocol engine: one instance manages all nodes
// (the adapter routes per-node state internally). Both the Teapot runtime
// adapter and hand-written baseline engines implement it.
type Engine interface {
	// Deliver a network message to node dst.
	Deliver(dst int, m *runtime.Message) error
	// Release hands back a record the machine delivered, once Deliver has
	// returned (runtime.Engine.Release states the ownership rule).
	Release(dst int, m *runtime.Message)
	// Event injects a locally generated protocol event at a node.
	Event(node int, tag int, id int) error
	// Counters reports cumulative per-node work counters.
	Counters(node int) CostCounters
	// Reset puts the engine back in the state its constructor left it in,
	// against the same machine (Machine.Reset).
	Reset()
}

// EventTags names the protocol events the machine raises; resolve with
// ResolveTags. Unsupported events are -1.
type EventTags struct {
	ReadFault  int // access Invalid, load
	WriteFault int // access Invalid, store
	WriteRO    int // access ReadOnly, store
	Evict      int
	Sync       int // buffered-write synchronization
	BeginPhase int // LCM phase entry
	EndPhase   int // LCM phase exit
	Timeout    int // TIMEOUT pseudo-message (fault-tolerant protocols)
}

// ResolveTags resolves the conventional event names on a protocol.
func ResolveTags(p *runtime.Protocol) EventTags {
	return EventTags{
		ReadFault:  p.MsgIndex("RD_FAULT"),
		WriteFault: p.MsgIndex("WR_FAULT"),
		WriteRO:    p.MsgIndex("WR_RO_FAULT"),
		Evict:      p.MsgIndex("EVICT"),
		Sync:       p.MsgIndex("SYNC"),
		BeginPhase: p.MsgIndex("BEGIN_LCM_EV"),
		EndPhase:   p.MsgIndex("END_LCM_EV"),
		Timeout:    p.MsgIndex("TIMEOUT"),
	}
}

// OpKind classifies workload operations.
type OpKind int

// Workload operations.
const (
	OpCompute    OpKind = iota // local computation for Cycles cycles
	OpRead                     // shared-memory load
	OpWrite                    // shared-memory store
	OpEvict                    // voluntary eviction of a clean copy
	OpSync                     // synchronization point (buffered-write)
	OpBeginPhase               // LCM phase entry for block Addr
	OpEndPhase                 // LCM phase exit for block Addr
	OpBarrier                  // application barrier (all nodes rendezvous)
	OpCAS                      // atomic compare-and-swap (litmus workloads)
	// OpYield advances the node clock by Cycles like Compute, then yields
	// to the event queue, so deliveries timestamped before the node's new
	// time run first. Compute deliberately does not yield (the processor
	// model executes straight-line code without re-synchronizing against
	// the network); litmus jitter uses Yield so phase-shifting a script
	// actually reorders its accesses against in-flight protocol traffic.
	OpYield
)

// Op is one workload operation.
type Op struct {
	Kind   OpKind
	Addr   int   // block, for Read/Write/Evict/CAS and the phase ops
	Cycles int64 // for Compute
	// Val is the value a Write or CAS stores (litmus workloads; 0 = the
	// plain version model, where a store is just "a fresh version").
	Val int64
	// Expect is the value a CAS requires the block to hold for its store
	// to take effect. The observed value is recorded either way.
	Expect int64
}

// Program supplies each node's operation stream.
type Program interface {
	// Next returns the node's next operation; ok=false when finished.
	Next(node int) (op Op, ok bool)
}

// Config describes one run of the machine: its shape (block b's home is
// node runtime.HomeOf(b, Nodes)), the protocol engine, the workload, and
// the network. internal/sim's Config is this type.
type Config struct {
	Nodes  int
	Blocks int
	Cost   CostModel
	Tags   EventTags
	// MakeEngine builds the protocol engine — compiled Teapot or a
	// hand-written baseline — against the machine, which is the engine's
	// runtime.Machine.
	MakeEngine func(m runtime.Machine) Engine
	Program    Program
	// Obs, when non-nil, receives the machine's fault events (and under
	// ObsMemory its memory events) and — if the engine implements
	// obs.Attacher — the engine's handler-level events.
	// A sink that implements obs.ClockSetter is driven by the machine's
	// virtual clock.
	Obs obs.Sink
	// MaxEvents bounds the simulation (safety net; 0 = default 100M). The
	// fuzzer sets a small budget so a livelocked schedule returns an error
	// instead of spinning toward the safety net.
	MaxEvents int64

	// Net is the network fault model: faults are injected stochastically at
	// send time from a deterministic RNG seeded with Seed, so two runs with
	// the same Config produce bit-identical Stats. Protocols without TIMEOUT
	// recovery will deadlock (reported, not hung) if a message they depend
	// on is dropped. sim.Run refuses a malformed model.
	Net  netmodel.Model
	Seed uint64

	// Sched, when set, takes over every nondeterministic decision (fault
	// injection, bounded channel reordering, same-cycle event order) from
	// the seeded RNG; see ChoiceKind. The fuzzer records and replays these
	// decisions as Schedules.
	Sched Chooser

	// ObsMemory turns on the data-version model: completed accesses and
	// data movement are emitted as obs events (KindAccess/Data/Read/Write)
	// for the coherence oracle. Off by default — large workloads emit one
	// event per access.
	ObsMemory bool

	// InitMem gives blocks initial values under ObsMemory (litmus
	// workloads): InitMem[b] is installed as version 0 of block b in every
	// node's copy, so a read that completes before any store observes it.
	// Values must fit 32 bits (see PackVal).
	InitMem []int64
}

// Stats summarizes a run.
type Stats struct {
	Cycles     int64 // execution time = max node completion time
	NodeCycles []int64
	FaultTime  int64 // total cycles processors spent stalled on faults
	Protocol   CostCounters
	ProtoTime  int64 // cycles charged to protocol processing
	Accesses   int64
	Faults     int64
	Messages   int64

	// Fault-injection outcomes (zero without an active Config.Net).
	Drops    int64 // messages lost by the network
	Dups     int64 // messages duplicated by the network
	Delays   int64 // messages held back Delay extra latencies
	Timeouts int64 // TIMEOUT pseudo-messages fired
}

// Machine is the simulated multiprocessor.
type Machine struct {
	cfg   Config
	eng   Engine
	now   int64
	queue eventQueue
	seq   int64

	nodeTime   []int64
	stalledOn  []int // block or -1
	stallStart []int64
	finished   []bool
	pendingOp  []Op   // op being retried after a fault,
	hasPending []bool // when the node has one
	access     []sema.AccessMode
	// charged[n] is the cost, in cycles, of all protocol work node n's
	// engine had done when its clock was last advanced. The cost model is
	// linear in the counters, so the difference of two totals is the cost
	// of the work between them.
	charged []int64

	atBarrier []bool
	nBarrier  int

	// Fault injection and timers. timerGen[node*Blocks+block] is bumped on
	// every arm/cancel; a timer event fires only if its generation is still
	// current, which makes cancellation O(1) without queue surgery.
	inj      *netmodel.Injector
	timerGen []int64

	// Schedule control (Config.Sched): per-channel in-flight counts and
	// held-back deliveries for the bounded-reorder choice, in use (holding)
	// when a chooser runs the machine under a reorder budget.
	sched    Chooser
	holding  bool
	inflight []int
	held     [][]heldMsg

	// Data-version model (Config.ObsMemory): mem is each node's copy of
	// each block (as a version number), version the latest committed
	// version per block.
	mem     []int64
	version []int64

	// stats counts the run so far; Run returns a copy.
	stats Stats
	err   error
}

// event is a scheduled occurrence.
type event struct {
	at    int64
	seq   int64 // tie-breaker for determinism
	kind  int   // 0 = message delivery, 1 = processor step, 2 = block timer
	node  int
	msg   *runtime.Message
	block int   // for timers
	gen   int64 // timer generation at arm time
}

// before is the queue's order: by time, then by scheduling sequence. The
// sequence is unique, so the order is total and the pop order does not
// depend on how the heap happens to be arranged.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventQueue is a binary min-heap of events held by value: scheduling an
// event allocates nothing once the array has grown to the run's peak.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the first event; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	first, last := h[0], h[len(h)-1]
	h[len(h)-1].msg = nil // the vacated slot must not pin the message
	h = h[:len(h)-1]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && h[child+1].before(&h[child]) {
			child++
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if len(h) > 0 {
		h[i] = last
	}
	return first
}

// Now returns the machine's current virtual time in cycles. Event sinks
// use it as a clock so trace timestamps line up with the cost model.
func (m *Machine) Now() int64 { return m.now }

// New builds a machine and, against it, the engine cfg.MakeEngine names
// (the engine needs the machine as its runtime.Machine), with cfg.Obs
// attached to both.
func New(cfg Config) *Machine {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 100_000_000
	}
	if cfg.Cost.TimeoutInterval == 0 {
		cfg.Cost.TimeoutInterval = 10 * cfg.Cost.NetLatency
	}
	m := &Machine{
		cfg:        cfg,
		nodeTime:   make([]int64, cfg.Nodes),
		stalledOn:  make([]int, cfg.Nodes),
		stallStart: make([]int64, cfg.Nodes),
		finished:   make([]bool, cfg.Nodes),
		pendingOp:  make([]Op, cfg.Nodes),
		hasPending: make([]bool, cfg.Nodes),
		access:     make([]sema.AccessMode, cfg.Nodes*cfg.Blocks),
		charged:    make([]int64, cfg.Nodes),
		atBarrier:  make([]bool, cfg.Nodes),
		inj:        netmodel.NewInjector(cfg.Net, cfg.Seed),
		timerGen:   make([]int64, cfg.Nodes*cfg.Blocks),
	}
	if cfg.ObsMemory {
		m.mem = make([]int64, cfg.Nodes*cfg.Blocks)
		m.version = make([]int64, cfg.Blocks)
	}
	m.init(cfg.Program, cfg.Seed, cfg.Sched)
	m.eng = cfg.MakeEngine(m)
	if cs, ok := cfg.Obs.(obs.ClockSetter); ok {
		cs.SetClock(m.Now)
	}
	if a, ok := m.eng.(obs.Attacher); ok && cfg.Obs != nil {
		a.SetObs(cfg.Obs)
	}
	return m
}

// Reset readies the machine for another run of the same shape — nodes,
// blocks, engine, network model, sink — over prog, with the fault RNG
// reseeded from seed and ch taking the nondeterministic decisions (nil: the
// RNG). The run that follows is the run a machine built by New with these
// three values would make.
func (m *Machine) Reset(prog Program, seed uint64, ch Chooser) {
	m.eng.Reset()
	m.init(prog, seed, ch)
}

// init puts everything a run changes back in its starting state: what New
// and Reset share.
func (m *Machine) init(prog Program, seed uint64, ch Chooser) {
	m.cfg.Program, m.cfg.Seed, m.sched = prog, seed, ch
	m.now, m.seq, m.err = 0, 0, nil
	clear(m.queue) // the events of a run that stopped early must not pin its messages
	m.queue = m.queue[:0]
	clear(m.nodeTime)
	clear(m.stallStart)
	clear(m.finished)
	clear(m.pendingOp)
	clear(m.hasPending)
	clear(m.charged)
	clear(m.atBarrier)
	m.nBarrier = 0
	for n := range m.stalledOn {
		m.stalledOn[n] = -1
	}
	clear(m.access)
	for b := 0; b < m.cfg.Blocks; b++ {
		m.access[m.HomeNode(b)*m.cfg.Blocks+b] = sema.AccReadWrite
	}
	m.inj.Reseed(seed)
	clear(m.timerGen)
	m.holding = ch != nil && m.cfg.Net.Reorder > 0
	if m.holding && m.inflight == nil {
		m.inflight = make([]int, m.cfg.Nodes*m.cfg.Nodes)
		m.held = make([][]heldMsg, m.cfg.Nodes*m.cfg.Nodes)
	}
	clear(m.inflight)
	for i, q := range m.held {
		clear(q)
		m.held[i] = q[:0]
	}
	if m.mem != nil {
		clear(m.mem)
		clear(m.version)
		for b, v := range m.cfg.InitMem {
			if b >= m.cfg.Blocks {
				break
			}
			for n := 0; n < m.cfg.Nodes; n++ {
				m.mem[n*m.cfg.Blocks+b] = PackVal(0, v)
			}
		}
	}
	m.stats = Stats{}
}

// HomeNode implements runtime.Machine.
func (m *Machine) HomeNode(id int) int { return runtime.HomeOf(id, m.cfg.Nodes) }

// Access returns the current access mode of (node, block).
func (m *Machine) Access(node, id int) sema.AccessMode {
	return m.access[node*m.cfg.Blocks+id]
}

// Send implements runtime.Machine: schedule delivery after the network
// latency. Channels are in-order because latency is constant and ties
// break by send sequence — unless Config.Net injects a fault: a dropped
// message is never scheduled (its obs flow arrow dangles), a duplicated one
// is scheduled twice (the copy a full latency later, so it arrives stale),
// and a delayed one is held back Delay extra latencies.
func (m *Machine) Send(from, dst int, msg *runtime.Message) {
	m.stats.Messages++
	if m.mem != nil && msg.Data && msg.ID >= 0 && msg.ID < m.cfg.Blocks {
		msg.Val = m.mem[from*m.cfg.Blocks+msg.ID]
	}
	lat := m.cfg.Cost.NetLatency
	switch m.netFault() {
	case netmodel.FaultDrop:
		m.stats.Drops++
		m.emitFault(obs.KindDrop, from, dst, msg)
		return
	case netmodel.FaultDup:
		m.stats.Dups++
		m.emitFault(obs.KindDup, from, dst, msg)
		c := *msg // payload and flow id shared: both deliveries are the same logical message
		// Same arrival time, later heap sequence: the copy lands right
		// behind the original, so duplication never reorders a channel
		// (matching the checker's fault model).
		m.trackInflight(from, dst)
		m.schedule(event{at: m.now + lat, kind: 0, node: dst, msg: &c})
	case netmodel.FaultDelay:
		m.stats.Delays++
		m.emitFault(obs.KindDelay, from, dst, msg)
		lat += int64(m.cfg.Net.Delay) * m.cfg.Cost.NetLatency
	}
	m.trackInflight(from, dst)
	m.schedule(event{at: m.now + lat, kind: 0, node: dst, msg: msg})
}

// trackInflight counts a scheduled delivery on its channel (schedule
// control with a reorder budget only; drops never count — they are decided
// at send time, so a held message can never wait on a lost arrival).
func (m *Machine) trackInflight(from, dst int) {
	if m.holding {
		m.inflight[m.chanIndex(from, dst)]++
	}
}

func (m *Machine) emitFault(kind obs.Kind, from, dst int, msg *runtime.Message) {
	if m.cfg.Obs == nil {
		return
	}
	m.cfg.Obs.Emit(FaultEvent(kind, from, dst, msg))
}

// FaultEvent is the event a network fault on msg in flight from→dst emits,
// here and in the checker: attributed to the sending node, carrying the
// message's flow id, so a replayed counterexample and a live run of the
// same schedule produce the same Drop/Dup stream.
func FaultEvent(kind obs.Kind, from, dst int, msg *runtime.Message) obs.Event {
	return obs.Event{Kind: kind, Node: int32(from), Block: int32(msg.ID),
		State: -1, Msg: int32(msg.Tag), Peer: int32(dst), Site: -1, Flow: msg.Flow()}
}

// ArmTimeout implements runtime.TimeoutArmer: (re)start the block's timer.
// Superseding the generation invalidates any timer already in the queue.
func (m *Machine) ArmTimeout(node, id int) {
	if m.cfg.Tags.Timeout < 0 {
		return
	}
	slot := node*m.cfg.Blocks + id
	m.timerGen[slot]++
	m.schedule(event{at: m.now + m.cfg.Cost.TimeoutInterval, kind: 2,
		node: node, block: id, gen: m.timerGen[slot]})
}

// CancelTimeout implements runtime.TimeoutArmer.
func (m *Machine) CancelTimeout(node, id int) {
	m.timerGen[node*m.cfg.Blocks+id]++
}

// fireTimer delivers the TIMEOUT pseudo-message for a block whose timer
// expired un-canceled. The handler runs like any delivery; the engine
// re-arms the timer if the state it lands in still declares one.
func (m *Machine) fireTimer(e *event) {
	if m.timerGen[e.node*m.cfg.Blocks+e.block] != e.gen {
		return // canceled or re-armed since
	}
	m.stats.Timeouts++
	start := m.nodeTime[e.node]
	if start < m.now {
		start = m.now
	}
	if err := m.eng.Event(e.node, m.cfg.Tags.Timeout, e.block); err != nil {
		m.err = err
		return
	}
	m.nodeTime[e.node] = m.chargeProtocol(e.node, start)
}

// AccessChange implements runtime.Machine.
func (m *Machine) AccessChange(node, id int, mode sema.AccessMode) {
	m.setAccess(node, id, mode)
}

// RecvData implements runtime.Machine. The engine routes data deliveries
// through RecvDataMsg (runtime.DataMachine) instead, which also installs
// the transported data version; this remains for hand-written engines that
// call the machine directly.
func (m *Machine) RecvData(node, id int, mode sema.AccessMode) {
	m.setAccess(node, id, mode)
}

// WakeUp implements runtime.Machine: unstall and resume the processor.
// The access that faulted is satisfied atomically with the wakeup when the
// granted permission allows it (as on Blizzard, where the faulting access
// completes as part of fault resolution); otherwise a later recall racing
// the processor's retry could starve a contended block forever.
func (m *Machine) WakeUp(node, id int) {
	if m.stalledOn[node] != id {
		return
	}
	m.stalledOn[node] = -1
	m.stats.FaultTime += m.now - m.stallStart[node]
	if m.nodeTime[node] < m.now {
		m.nodeTime[node] = m.now
	}
	if op := &m.pendingOp[node]; m.hasPending[node] &&
		(op.Kind == OpRead || op.Kind == OpWrite || op.Kind == OpCAS) {
		if acc := m.Access(node, op.Addr); WakeCompletes(op.Kind, acc) {
			m.nodeTime[node] += m.cfg.Cost.MemAccess
			m.stats.Accesses++
			m.noteOp(node, op, op.Kind == OpWrite && acc == sema.AccReadOnly)
			m.hasPending[node] = false
		}
	}
	m.schedule(event{at: m.nodeTime[node], kind: 1, node: node})
}

// Print implements runtime.Machine.
func (m *Machine) Print(node int, s string) {
	// Protocol debug output is discarded in simulation runs.
}

func (m *Machine) schedule(e event) {
	e.seq = m.seq
	m.seq++
	m.queue.push(e)
}

// chargeProtocol advances a node's clock by the protocol work done since
// it was last charged.
func (m *Machine) chargeProtocol(node int, start int64) int64 {
	total := m.cfg.Cost.Cycles(m.eng.Counters(node))
	cost := total - m.charged[node]
	m.charged[node] = total
	m.stats.ProtoTime += cost
	return start + cost
}

// Run executes the workload to completion and returns statistics.
func (m *Machine) Run() (*Stats, error) {
	for n := 0; n < m.cfg.Nodes; n++ {
		m.schedule(event{at: 0, kind: 1, node: n})
	}
	var events int64
	for len(m.queue) > 0 {
		if events++; events > m.cfg.MaxEvents {
			return nil, fmt.Errorf("tempest: event budget exhausted (livelock?)")
		}
		e := m.queue.pop()
		if m.sched != nil && len(m.queue) > 0 && m.queue[0].at == e.at {
			e = m.pickTie(e)
		}
		m.now = e.at
		switch e.kind {
		case 0:
			m.deliver(e.node, e.msg)
		case 2:
			m.fireTimer(&e)
		default:
			m.step(e.node)
		}
		if m.err != nil {
			return nil, m.err
		}
	}
	for ch := range m.held {
		if len(m.held[ch]) > 0 {
			return nil, fmt.Errorf("tempest: internal error: %d message(s) still held on channel %d→%d",
				len(m.held[ch]), ch/m.cfg.Nodes, ch%m.cfg.Nodes)
		}
	}
	for n, stalled := range m.stalledOn {
		if stalled >= 0 {
			return nil, fmt.Errorf("tempest: node %d deadlocked on block %d", n, stalled)
		}
		if !m.finished[n] {
			status := ""
			for i := range m.finished {
				status += fmt.Sprintf(" node%d{fin=%v bar=%v stall=%d}", i, m.finished[i], m.atBarrier[i], m.stalledOn[i])
			}
			return nil, fmt.Errorf("tempest: node %d never finished (%d/%d at barrier):%s",
				n, m.nBarrier, m.cfg.Nodes, status)
		}
	}
	// A copy: the caller may keep it across a Reset, and it must not keep
	// the machine alive.
	st := m.stats
	st.NodeCycles = make([]int64, len(m.nodeTime))
	for n, t := range m.nodeTime {
		st.NodeCycles[n] = t
		st.Cycles = max(st.Cycles, t)
		st.Protocol = st.Protocol.Add(m.eng.Counters(n))
	}
	return &st, nil
}

// deliver runs a protocol handler for an incoming message. Handlers
// execute on the destination node and occupy its processor. Under schedule
// control with a reorder budget the arrival first passes through the
// hold/release choice (see arrive).
func (m *Machine) deliver(node int, msg *runtime.Message) {
	if m.holding {
		m.arrive(node, msg)
		return
	}
	m.deliverMsg(node, msg)
}

// deliverMsg hands msg to the engine; the delivery was the machine's to
// schedule, so the record is the machine's to release afterwards.
func (m *Machine) deliverMsg(node int, msg *runtime.Message) {
	start := m.nodeTime[node]
	if start < m.now {
		start = m.now
	}
	if err := m.eng.Deliver(node, msg); err != nil {
		m.err = err
		return
	}
	m.eng.Release(node, msg)
	m.nodeTime[node] = m.chargeProtocol(node, start)
}

// step executes the node's next workload operation(s).
func (m *Machine) step(node int) {
	if m.stalledOn[node] >= 0 || m.finished[node] || m.atBarrier[node] {
		return
	}
	// Execute operations until the node faults or finishes. Each op
	// advances the node clock; control returns to the event loop on
	// faults (resumed by WakeUp) and at message deliveries (which the
	// event queue interleaves by time).
	for {
		var op Op
		if m.hasPending[node] {
			op = m.pendingOp[node]
			m.hasPending[node] = false
		} else {
			var ok bool
			op, ok = m.cfg.Program.Next(node)
			if !ok {
				m.finished[node] = true
				return
			}
		}
		switch op.Kind {
		case OpCompute:
			m.nodeTime[node] += op.Cycles
		case OpYield:
			m.nodeTime[node] += op.Cycles
			m.schedule(event{at: m.nodeTime[node], kind: 1, node: node})
			return
		case OpRead, OpWrite, OpCAS:
			acc := m.Access(node, op.Addr)
			if AccessOK(op.Kind, acc) {
				m.stats.Accesses++
				m.nodeTime[node] += m.cfg.Cost.MemAccess
				m.noteOp(node, &op, false)
				break
			}
			// Access fault: trap, run the protocol handler, stall.
			m.stats.Faults++
			tag := m.cfg.Tags.FaultTag(op.Kind, acc)
			if tag < 0 {
				m.err = fmt.Errorf("tempest: no fault event for op %v access %v", op.Kind, acc)
				return
			}
			m.nodeTime[node] += m.cfg.Cost.FaultTrap
			m.now = m.nodeTime[node]
			m.stalledOn[node] = op.Addr
			m.stallStart[node] = m.now
			m.pendingOp[node], m.hasPending[node] = op, true // retry after wakeup
			if err := m.eng.Event(node, tag, op.Addr); err != nil {
				m.err = err
				return
			}
			m.nodeTime[node] = m.chargeProtocol(node, m.nodeTime[node])
			// Whether the handler woke us synchronously (in which case
			// WakeUp scheduled a continuation step) or we wait for a
			// message, this step ends here; continuing the loop as well
			// would run the processor twice.
			return
		case OpEvict:
			if m.cfg.Tags.Evict >= 0 && m.Access(node, op.Addr) == sema.AccReadOnly &&
				m.HomeNode(op.Addr) != node {
				m.fireEvent(node, m.cfg.Tags.Evict, op.Addr)
				if m.err != nil {
					return
				}
			}
		case OpSync:
			if m.cfg.Tags.Sync < 0 {
				break
			}
			// Synchronization point: raise SYNC on every block in turn
			// (op.Addr carries resume progress). A protocol with pending
			// buffered acquisitions keeps the processor stalled until the
			// block's handler wakes it; then the sweep continues.
			done := true
			for b := op.Addr; b < m.cfg.Blocks; b++ {
				m.now = m.nodeTime[node]
				m.stalledOn[node] = b
				m.stallStart[node] = m.now
				if err := m.eng.Event(node, m.cfg.Tags.Sync, b); err != nil {
					m.err = err
					return
				}
				m.nodeTime[node] = m.chargeProtocol(node, m.nodeTime[node])
				if m.stalledOn[node] >= 0 {
					m.pendingOp[node], m.hasPending[node] = op, true
					m.pendingOp[node].Addr = b + 1
					done = false
					break
				}
			}
			if !done {
				return
			}
		case OpBarrier:
			// Application-level rendezvous: the paper's LCM and
			// buffered-write protocols assume the program synchronizes
			// phases. The last arriver releases everyone at its time.
			m.atBarrier[node] = true
			m.nBarrier++
			if m.nBarrier < m.cfg.Nodes {
				return
			}
			release := m.now
			for n, t := range m.nodeTime {
				if m.atBarrier[n] && t > release {
					release = t
				}
			}
			if m.nodeTime[node] > release {
				release = m.nodeTime[node]
			}
			m.nBarrier = 0
			for n := range m.atBarrier {
				if !m.atBarrier[n] {
					continue
				}
				m.atBarrier[n] = false
				m.nodeTime[n] = release
				if n != node {
					m.schedule(event{at: release, kind: 1, node: n})
				}
			}
			continue
		case OpBeginPhase:
			if m.cfg.Tags.BeginPhase >= 0 {
				m.fireEvent(node, m.cfg.Tags.BeginPhase, op.Addr)
				if m.err != nil {
					return
				}
			}
		case OpEndPhase:
			if m.cfg.Tags.EndPhase >= 0 {
				m.fireEvent(node, m.cfg.Tags.EndPhase, op.Addr)
				if m.err != nil {
					return
				}
			}
		}
	}
}

// fireEvent injects a non-stalling protocol event for one block.
func (m *Machine) fireEvent(node, tag, addr int) {
	m.now = m.nodeTime[node]
	if err := m.eng.Event(node, tag, addr); err != nil {
		m.err = err
		return
	}
	m.nodeTime[node] = m.chargeProtocol(node, m.nodeTime[node])
}

// The processor model's rules. The checker's scripted-client plane
// (internal/mc/client.go) calls these same functions, so the two machines
// cannot disagree on when an access completes, which event a fault raises,
// when a wakeup finishes the faulted access, or what word a store leaves.

// AccessOK reports whether a read, write or CAS completes under the given
// mode. Buffered mode (weak ordering) completes stores into the write buffer.
func AccessOK(kind OpKind, acc sema.AccessMode) bool {
	switch acc {
	case sema.AccReadWrite:
		return true
	case sema.AccReadOnly:
		return kind == OpRead
	case sema.AccBuffered:
		return kind == OpWrite
	}
	return false
}

// FaultTag returns the event an access that AccessOK refuses raises, -1
// when the protocol declares none.
func (t EventTags) FaultTag(kind OpKind, acc sema.AccessMode) int {
	if kind == OpRead {
		return t.ReadFault
	}
	if acc == sema.AccReadOnly {
		return t.WriteRO
	}
	return t.WriteFault
}

// WakeCompletes reports whether the protocol's WakeUp finishes the faulted
// access: when the granted mode allows it, and also for a faulted *write*
// left read-only, which means the protocol performed the store on the
// processor's behalf (write-through/update protocols do exactly that in the
// fault handler); re-faulting would retry forever. CAS gets no such
// exception: its read-modify-write is only atomic with the block held
// read-write, so it is unsupported on write-through and buffered protocols.
func WakeCompletes(kind OpKind, acc sema.AccessMode) bool {
	return AccessOK(kind, acc) || (kind == OpWrite && acc == sema.AccReadOnly)
}

// StoreWord is the word a completed store leaves in the writer's copy:
// version ver of the block, with val — when nonzero, the value a litmus
// store wrote — packed into the low bits (PackVal), so every monotone
// version comparison keeps ordering by version.
func StoreWord(ver, val int64) int64 {
	if val == 0 {
		return ver
	}
	return PackVal(ver, val)
}
