package tempest

import (
	"slices"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// Schedule control: with Config.Sched installed, every nondeterministic
// decision the machine would otherwise draw from its seeded fault RNG — plus
// two sources of nondeterminism the plain simulator fixes by convention
// (same-cycle event order, bounded channel reordering) — is delegated to a
// Chooser. internal/fuzz supplies choosers that record each decision into a
// replayable Schedule and play recorded schedules back; option 0 is always
// the benign choice, so the empty schedule reproduces the deterministic
// fault-free run bit-for-bit.

// ChoiceKind classifies one nondeterministic decision point.
type ChoiceKind uint8

// Decision points the machine exposes.
const (
	// ChooseFault picks the fate of a message send. Option 0 is "deliver
	// normally"; the rest are the fault kinds currently inside budget, in
	// fixed order drop, dup, delay (absent options are skipped).
	ChooseFault ChoiceKind = iota
	// ChooseHold picks how many later arrivals on the same channel may
	// overtake an arriving message: option 0 delivers now, option d holds
	// the message until d subsequent deliveries on the channel have passed
	// it. d is capped at min(Net.Reorder, messages in flight behind it), so
	// a schedule can never exceed the model's reorder bound or hold a
	// message forever.
	ChooseHold
	// ChooseTie picks among events scheduled for the same cycle. Candidates
	// that would reorder a channel (a second delivery from the same sender)
	// are excluded — channel order is ChooseHold's job, under the reorder
	// bound.
	ChooseTie
	numChoiceKinds
)

var choiceKindNames = [numChoiceKinds]string{"fault", "hold", "tie"}

func (k ChoiceKind) String() string {
	if int(k) < len(choiceKindNames) {
		return choiceKindNames[k]
	}
	return "choice?"
}

// Chooser resolves nondeterministic decisions. Choose returns an option in
// [0, n); n is always >= 2 (the machine never asks about forced moves) and
// option 0 is always the benign default.
type Chooser interface {
	Choose(kind ChoiceKind, n int) int
}

// heldMsg is a delivery deferred by a ChooseHold decision: it re-enters the
// channel after wait subsequent deliveries have overtaken it.
type heldMsg struct {
	msg  *runtime.Message
	wait int
}

// netFault decides the fate of one send: the seeded injector when no
// chooser is installed, otherwise an explicit choice over the fault kinds
// still inside budget (the chooser sees exactly the options the checker
// would branch on, so a recorded schedule maps onto mc's action space).
func (m *Machine) netFault() netmodel.Fault {
	if m.sched == nil {
		return m.inj.Next()
	}
	if !m.cfg.Net.Active() {
		return netmodel.FaultNone
	}
	var opts [4]netmodel.Fault
	n := 1 // opts[0] = FaultNone
	if m.stats.Drops < int64(m.cfg.Net.MaxDrops) {
		opts[n] = netmodel.FaultDrop
		n++
	}
	if m.stats.Dups < int64(m.cfg.Net.MaxDups) {
		opts[n] = netmodel.FaultDup
		n++
	}
	if m.cfg.Net.Delay > 0 {
		opts[n] = netmodel.FaultDelay
		n++
	}
	if n == 1 {
		return netmodel.FaultNone
	}
	return opts[m.sched.Choose(ChooseFault, n)]
}

// chanIndex identifies the ordered channel src→dst.
func (m *Machine) chanIndex(src, dst int) int { return src*m.cfg.Nodes + dst }

// arrive handles a delivery event under schedule control with a reorder
// budget: the chooser may hold the message so later traffic on the same
// channel overtakes it, bounded by Net.Reorder and by what is actually in
// flight (the last in-flight message on a channel can never hold, which
// guarantees every held message is eventually released).
func (m *Machine) arrive(node int, msg *runtime.Message) {
	ch := m.chanIndex(msg.Src, node)
	m.inflight[ch]--
	d := m.cfg.Net.Reorder
	if infl := m.inflight[ch]; infl < d {
		d = infl
	}
	if d > 0 {
		pick := m.sched.Choose(ChooseHold, d+1)
		if pick > d {
			pick = d // tolerate schedules recorded under a larger bound
		}
		if pick > 0 {
			m.held[ch] = append(m.held[ch], heldMsg{msg: msg, wait: pick})
			return
		}
	}
	m.deliverOn(ch, node, msg)
}

// deliverOn delivers msg on channel ch, then releases any held messages
// whose overtake count is spent. Each release is itself a delivery on the
// channel, so the loop keeps decrementing until no held entry is due.
func (m *Machine) deliverOn(ch, node int, msg *runtime.Message) {
	m.deliverMsg(node, msg)
	for m.err == nil {
		q := m.held[ch]
		due := -1
		for i := range q {
			q[i].wait--
			if q[i].wait <= 0 && due < 0 {
				due = i
			}
		}
		if due < 0 {
			return
		}
		rel := q[due].msg
		m.held[ch] = append(q[:due:due], q[due+1:]...)
		m.deliverMsg(node, rel)
	}
}

// pickTie resolves a same-cycle tie among pending events. The first-popped
// event is the machine's conventional order (option 0); the chooser may run
// any other candidate first, except a delivery that would overtake an
// earlier delivery on its own channel.
const maxTieCandidates = 8

func (m *Machine) pickTie(first event) event {
	// The lists live in arrays on the stack: at most maxTieCandidates each,
	// so a linear scan finds a channel's earlier delivery.
	var candBuf [maxTieCandidates]event
	cand := append(candBuf[:0], first)
	for len(m.queue) > 0 && len(cand) < maxTieCandidates && m.queue[0].at == first.at {
		cand = append(cand, m.queue.pop())
	}
	if len(cand) == 1 {
		return first
	}
	var eligibleBuf, chansBuf [maxTieCandidates]int
	eligible, chans := eligibleBuf[:0], chansBuf[:0]
	for i := range cand {
		if e := &cand[i]; e.kind == 0 {
			ch := m.chanIndex(e.msg.Src, e.node)
			if slices.Contains(chans, ch) {
				continue
			}
			chans = append(chans, ch)
		}
		eligible = append(eligible, i)
	}
	pick := 0
	if len(eligible) > 1 {
		pick = m.sched.Choose(ChooseTie, len(eligible))
		if pick < 0 || pick >= len(eligible) {
			pick = 0
		}
	}
	chosen := eligible[pick]
	for i, e := range cand {
		if i != chosen {
			m.queue.push(e) // with the sequence it had: its place is unchanged
		}
	}
	return cand[chosen]
}

// ---- data-version model (Config.ObsMemory) ----
//
// The machine models block contents as versions: a completed store creates
// a fresh global version of its block, data-carrying messages transport the
// sender's current version, and RecvData installs it. internal/oracle
// checks the resulting Read/Write/Data/Access event stream for coherence —
// reads must observe the latest version, completed writes must never be
// lost — independently of the protocol under test.

// RecvDataMsg implements runtime.DataMachine: the access change RecvData
// would make, plus installing the message's transported version. Versions
// only ever move forward at a node: fault-tolerant protocols retransmit
// data-carrying messages, and a retransmitted (or overtaken) copy can
// arrive after the node already holds newer data. Real implementations tag
// block data with epochs and discard the stale copy — the ft variants'
// documented assumption — so the model does the same, keeping the access
// change but not regressing the data.
func (m *Machine) RecvDataMsg(node, id int, mode sema.AccessMode, msg *runtime.Message) {
	m.setAccess(node, id, mode)
	if m.mem == nil {
		return
	}
	if cur := m.mem[node*m.cfg.Blocks+id]; msg.Val > cur {
		m.mem[node*m.cfg.Blocks+id] = msg.Val
	}
	if m.cfg.Obs != nil {
		m.cfg.Obs.Emit(obs.Event{Kind: obs.KindData, Node: int32(node), Block: int32(id),
			State: -1, Msg: int32(msg.Tag), Peer: int32(msg.Src), Site: -1, Arg: msg.Val})
	}
}

// setAccess applies an access-mode change, emitting the memory-model event
// when the run is being judged.
func (m *Machine) setAccess(node, id int, mode sema.AccessMode) {
	m.access[node*m.cfg.Blocks+id] = mode
	if m.mem != nil && m.cfg.Obs != nil {
		m.cfg.Obs.Emit(obs.Event{Kind: obs.KindAccess, Node: int32(node), Block: int32(id),
			State: -1, Msg: -1, Peer: -1, Site: -1, Arg: int64(mode)})
	}
}

// noteRead records a completed load: the node observed its copy's version.
func (m *Machine) noteRead(node, addr int) {
	if m.mem == nil {
		return
	}
	if m.cfg.Obs != nil {
		m.cfg.Obs.Emit(obs.Event{Kind: obs.KindRead, Node: int32(node), Block: int32(addr),
			State: -1, Msg: -1, Peer: -1, Site: -1, Arg: m.mem[node*m.cfg.Blocks+addr]})
	}
}

// noteWrite records a completed store: a fresh version of the block now
// lives in the node's copy. protocolPerformed marks stores the protocol
// made on the processor's behalf (a faulted write completing with
// read-only access — the write-through discipline). val is the value the
// store wrote (see StoreWord).
func (m *Machine) noteWrite(node, addr int, protocolPerformed bool, val int64) {
	if m.mem == nil {
		return
	}
	m.version[addr]++
	v := StoreWord(m.version[addr], val)
	m.mem[node*m.cfg.Blocks+addr] = v
	if m.cfg.Obs != nil {
		site := int32(0)
		if protocolPerformed {
			site = 1
		}
		m.cfg.Obs.Emit(obs.Event{Kind: obs.KindWrite, Node: int32(node), Block: int32(addr),
			State: -1, Msg: -1, Peer: -1, Site: site, Arg: v})
	}
}

// noteOp records a completed read, write, or compare-and-swap access. A
// CAS first observes the node's copy (emitted as a read, like any load),
// then stores only if the observed value matches op.Expect.
func (m *Machine) noteOp(node int, op *Op, protocolPerformed bool) {
	if m.mem == nil {
		return
	}
	switch op.Kind {
	case OpRead:
		m.noteRead(node, op.Addr)
	case OpWrite:
		m.noteWrite(node, op.Addr, protocolPerformed, op.Val)
	case OpCAS:
		observed := m.mem[node*m.cfg.Blocks+op.Addr]
		m.noteRead(node, op.Addr)
		if ValueOf(observed) == op.Expect {
			m.noteWrite(node, op.Addr, protocolPerformed, op.Val)
		}
	}
}

// ---- value packing (litmus workloads) ----
//
// The version model orders block copies by a monotonically increasing
// version number. Litmus workloads additionally need concrete values; they
// ride in the low 32 bits of the same word with the version above them, so
// every monotone version comparison (stale-data discard, oracle checks)
// keeps working unchanged while the value stays recoverable at the end.

// PackVal packs a version and a 32-bit value into one version word.
func PackVal(version, val int64) int64 { return version<<32 | (val & 0xffffffff) }

// ValueOf extracts the value from a packed version word.
func ValueOf(packed int64) int64 { return packed & 0xffffffff }
