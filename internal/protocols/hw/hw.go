// Package hw is the hand-written state-machine baseline of the paper's
// Tables 1 and 2 — the "C State Machine" column. This file is Stache, stated
// once; lcm.go is base LCM as the tags, states, pending action and rows it
// adds to Stache. The paper's hand-written LCM has the same shape (it
// contains the hand-written Stache): ~2500 lines of C that "contained
// numerous bugs that consumed months of effort to fix". Both engines keep
// the compiled engine's whole tempest.Engine contract, Reset included, but
// neither emits events.
package hw

import (
	"fmt"

	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/tempest"
)

// Engine is a hand-written protocol engine. It is wire-compatible with the
// compiled Teapot version (same message tags, same transitions) but encodes
// every transition with explicit intermediate states and per-block pending
// fields instead of continuations, exactly the programming style §2
// describes (and whose complexity motivates Teapot).
//
// Costs: it reports handler activations and statement counts like the
// Teapot engine but never allocates continuation or queue records; its
// per-block pending fields are the paper's footnote-1 "flag in the protocol
// state associated with a block".
//
// Message records are recycled under runtime.Engine.Release's ownership
// rule: a machine hands each delivered record back (tempest.Engine's
// Release), an event's record comes back when Deliver returns, and a
// deferred record is kept until its block's queue lets go of it.
type Engine struct {
	name     string // "stache-hw" or "lcm-hw", the prefix of its errors
	nodes    int
	machine  runtime.Machine
	messages []*sema.Message // the protocol's, for errors that name a tag
	msg      hwMsgs
	lcm      *lcmMsgs    // nil under plain Stache: no LCM row can fire
	blks     [][]hwBlock // [node][block]
	counters []tempest.CostCounters
	free     []*runtime.Message // released records, which send and Event reuse
}

// hwMsgs caches message tag indices; using the compiled protocol's indices
// keeps the two implementations wire-compatible.
type hwMsgs struct {
	rdFault, wrFault, wrROFault, evict                   int
	getROReq, getROResp, getRWReq, getRWResp             int
	upgradeReq, upgradeAck                               int
	putDataReq, putDataResp, putNoDataReq, putNoDataResp int
	evictROReq, evictROAck                               int
}

// hwState enumerates the explicit states, including every intermediate
// state the continuation-free style requires. lcm.go continues the
// numbering.
type hwState int

const (
	hwInv hwState = iota
	hwRO
	hwRW
	hwInvToRO
	hwInvToROP // poisoned fill
	hwInvToRW
	hwROToRW
	hwROEvicting
	hwEvToRO
	hwEvToRW
	hwPEvicting
	hwIdle
	hwRS
	hwExcl
	hwAwaitPut
	hwAwaitAcks
)

var hwStateNames = append([]string{
	"Cache_Inv", "Cache_RO", "Cache_RW", "Cache_Inv_To_RO", "Cache_Inv_To_RO_P",
	"Cache_Inv_To_RW", "Cache_RO_To_RW", "Cache_RO_Evicting", "Cache_Ev_To_RO",
	"Cache_Ev_To_RW", "Cache_P_Evicting", "Home_Idle", "Home_RS", "Home_Excl",
	"Home_AwaitPutData", "Home_AwaitInvAcks",
}, lcmStateNames...)

func (s hwState) String() string { return hwStateNames[s] }

// pending actions for the intermediate home states (what a continuation
// would have remembered). lcm.go adds pGrantLCM.
type hwPending int

const (
	pNone      hwPending = iota
	pGrantRO             // after put-data: grant read copy to src
	pGrantRW             // after put-data or acks: grant writable copy to src
	pUpgrade             // after acks: upgrade src (falls back to grant if src lost its copy)
	pHomeRead            // after put-data: satisfy the home's own read
	pHomeWrite           // after put-data or acks: satisfy the home's own write
)

type hwBlock struct {
	state   hwState
	sharers int64
	owner   int
	// Intermediate-state bookkeeping (the flags of §2/footnote 1):
	pending     hwPending
	pendingSrc  int
	pendingAcks int

	lcmBlock

	deferred     []*runtime.Message
	transitioned bool
}

// NewStache builds the hand-written Stache engine. The protocol argument
// supplies the message tag numbering (wire compatibility with the Teapot
// build) and the names errors print.
func NewStache(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) *Engine {
	h := &Engine{
		name: "stache-hw", nodes: nodes, machine: m, messages: p.IR.Sema.Messages,
		msg: hwMsgs{
			rdFault: p.MsgIndex("RD_FAULT"), wrFault: p.MsgIndex("WR_FAULT"),
			wrROFault: p.MsgIndex("WR_RO_FAULT"), evict: p.MsgIndex("EVICT"),
			getROReq: p.MsgIndex("GET_RO_REQ"), getROResp: p.MsgIndex("GET_RO_RESP"),
			getRWReq: p.MsgIndex("GET_RW_REQ"), getRWResp: p.MsgIndex("GET_RW_RESP"),
			upgradeReq: p.MsgIndex("UPGRADE_REQ"), upgradeAck: p.MsgIndex("UPGRADE_ACK"),
			putDataReq: p.MsgIndex("PUT_DATA_REQ"), putDataResp: p.MsgIndex("PUT_DATA_RESP"),
			putNoDataReq: p.MsgIndex("PUT_NO_DATA_REQ"), putNoDataResp: p.MsgIndex("PUT_NO_DATA_RESP"),
			evictROReq: p.MsgIndex("EVICT_RO_REQ"), evictROAck: p.MsgIndex("EVICT_RO_ACK"),
		},
		counters: make([]tempest.CostCounters, nodes),
	}
	h.blks = make([][]hwBlock, nodes)
	for n := range h.blks {
		h.blks[n] = make([]hwBlock, blocks)
	}
	h.Reset()
	return h
}

// Reset implements tempest.Engine: every block back in its start state
// with no pending action and an empty deferred queue, and the counters
// cleared. The free record list stays warm.
func (h *Engine) Reset() {
	for n, blks := range h.blks {
		for id := range blks {
			blks[id] = hwBlock{state: hwInv, owner: -1}
			if h.machine.HomeNode(id) == n {
				blks[id].state = hwIdle
			}
		}
	}
	clear(h.counters)
}

// StateName reports a block's state (for tests).
func (h *Engine) StateName(node, block int) string { return h.blks[node][block].state.String() }

// Counters implements tempest.Engine.
func (h *Engine) Counters(node int) tempest.CostCounters { return h.counters[node] }

// Event implements tempest.Engine.
func (h *Engine) Event(node int, tag int, id int) error {
	m := h.newMessage()
	*m = runtime.Message{Tag: tag, ID: id, Src: node}
	err := h.Deliver(node, m)
	h.Release(node, m)
	return err
}

// Release implements tempest.Engine: the record is reused unless the
// block it concerns still holds it deferred.
func (h *Engine) Release(dst int, m *runtime.Message) {
	for _, d := range h.blks[dst][m.ID].deferred {
		if d == m {
			return
		}
	}
	h.free = append(h.free, m)
}

// newMessage returns a released record if there is one, else a new one.
func (h *Engine) newMessage() *runtime.Message {
	if n := len(h.free); n > 0 {
		m := h.free[n-1]
		h.free = h.free[:n-1]
		return m
	}
	return new(runtime.Message)
}

// Deliver implements tempest.Engine: dispatch plus deferred-queue retry on
// transitions, mirroring the runtime's discipline.
func (h *Engine) Deliver(node int, m *runtime.Message) error {
	b := &h.blks[node][m.ID]
	b.transitioned = false
	if err := h.dispatch(node, b, m); err != nil {
		return err
	}
	for pass := 0; b.transitioned && len(b.deferred) > 0; pass++ {
		if pass > 10000 {
			return fmt.Errorf("%s: deferred queue never drained", h.name)
		}
		b.transitioned = false
		q := b.deferred
		b.deferred = nil
		for _, dm := range q {
			if err := h.dispatch(node, b, dm); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- helpers; ops(n) counts n "statements" for the cost model ----

func (h *Engine) ops(node int, n int64) { h.counters[node].Instrs += n }

func (h *Engine) send(node, dst int, tag, id int, data bool) {
	h.counters[node].Sends++
	h.ops(node, 1)
	m := h.newMessage()
	*m = runtime.Message{Tag: tag, ID: id, Src: node, Data: data}
	h.machine.Send(node, dst, m)
}

func (h *Engine) setState(node int, b *hwBlock, s hwState) {
	h.ops(node, 1)
	b.state = s
	b.transitioned = true
}

func (h *Engine) access(node, id int, mode sema.AccessMode) {
	h.ops(node, 1)
	h.machine.AccessChange(node, id, mode)
}

func (h *Engine) enqueue(node int, b *hwBlock, m *runtime.Message) {
	h.ops(node, 2)
	b.deferred = append(b.deferred, m)
}

func (h *Engine) home(id int) int { return h.machine.HomeNode(id) }

// errf names the message as the compiled protocol's Error("invalid msg %s to
// ...") does.
func (h *Engine) errf(node int, b *hwBlock, m *runtime.Message) error {
	name := fmt.Sprintf("msg%d", m.Tag)
	if m.Tag >= 0 && m.Tag < len(h.messages) {
		name = h.messages[m.Tag].Name
	}
	return fmt.Errorf("%s: node %d: invalid msg %s to %s (block %d)", h.name, node, name, b.state, m.ID)
}

// invalidateSharers sends PUT_NO_DATA_REQ to every sharer except excl.
func (h *Engine) invalidateSharers(node int, b *hwBlock, excl, id int) int {
	count := 0
	for n := 0; n < h.nodes; n++ {
		if b.sharers&(1<<uint(n)) == 0 || n == excl {
			continue
		}
		h.send(node, n, h.msg.putNoDataReq, id, false)
		count++
	}
	h.ops(node, 2)
	return count
}

// completeAcks finishes a Home_AwaitInvAcks transition.
func (h *Engine) completeAcks(node int, b *hwBlock, id int) {
	switch b.pending {
	case pUpgrade:
		if b.sharers&(1<<uint(b.pendingSrc)) != 0 {
			h.send(node, b.pendingSrc, h.msg.upgradeAck, id, false)
		} else {
			h.send(node, b.pendingSrc, h.msg.getRWResp, id, true)
		}
		b.sharers = 0
		b.owner = b.pendingSrc
		h.access(node, id, sema.AccInvalid)
		h.setState(node, b, hwExcl)
	case pGrantRW:
		b.sharers = 0
		h.send(node, b.pendingSrc, h.msg.getRWResp, id, true)
		b.owner = b.pendingSrc
		h.access(node, id, sema.AccInvalid)
		h.setState(node, b, hwExcl)
	case pHomeWrite:
		b.sharers = 0
		h.access(node, id, sema.AccReadWrite)
		h.setState(node, b, hwIdle)
		h.machine.WakeUp(node, id)
	case pGrantLCM: // lcm.go
		b.sharers = 0
		h.completeLCM(node, b, id)
	}
	b.pending = pNone
	h.ops(node, 3)
}

// completePut finishes a Home_AwaitPutData transition.
func (h *Engine) completePut(node int, b *hwBlock, id int) {
	switch b.pending {
	case pGrantRO:
		h.send(node, b.pendingSrc, h.msg.getROResp, id, true)
		b.sharers |= 1 << uint(b.pendingSrc)
		h.access(node, id, sema.AccReadOnly)
		h.setState(node, b, hwRS)
	case pGrantRW, pUpgrade:
		h.send(node, b.pendingSrc, h.msg.getRWResp, id, true)
		b.owner = b.pendingSrc
		h.access(node, id, sema.AccInvalid)
		h.setState(node, b, hwExcl)
	case pHomeRead, pHomeWrite:
		h.access(node, id, sema.AccReadWrite)
		h.setState(node, b, hwIdle)
		h.machine.WakeUp(node, id)
	case pGrantLCM: // lcm.go
		h.completeLCM(node, b, id)
	}
	b.pending = pNone
	h.ops(node, 3)
}

// dispatch runs one handler to completion: the row LCM adds for (state,
// tag) if there is one, Stache's otherwise.
func (h *Engine) dispatch(node int, b *hwBlock, m *runtime.Message) error {
	h.counters[node].Handlers++
	h.ops(node, 5) // dispatch table + argument setup
	if h.lcm != nil {
		if done, err := h.dispatchLCM(node, b, m); done {
			return err
		}
	}
	msg := &h.msg
	id := m.ID
	switch b.state {

	case hwInv:
		switch m.Tag {
		case msg.rdFault:
			h.send(node, h.home(id), msg.getROReq, id, false)
			h.setState(node, b, hwInvToRO)
		case msg.wrFault:
			h.send(node, h.home(id), msg.getRWReq, id, false)
			h.setState(node, b, hwInvToRW)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			return h.errf(node, b, m)
		}

	case hwInvToRO:
		switch m.Tag {
		case msg.getROResp:
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 1)
			h.setState(node, b, hwRO)
			h.machine.WakeUp(node, id)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
			h.setState(node, b, hwInvToROP)
		default:
			h.enqueue(node, b, m)
		}

	case hwInvToROP:
		switch m.Tag {
		case msg.getROResp:
			h.send(node, h.home(id), msg.evictROReq, id, false)
			h.setState(node, b, hwPEvicting)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwPEvicting:
		switch m.Tag {
		case msg.evictROAck:
			h.send(node, h.home(id), msg.getROReq, id, false)
			h.setState(node, b, hwInvToRO)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwInvToRW:
		switch m.Tag {
		case msg.getRWResp:
			h.machine.RecvData(node, id, sema.AccReadWrite)
			h.ops(node, 1)
			h.setState(node, b, hwRW)
			h.machine.WakeUp(node, id)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwRO:
		switch m.Tag {
		case msg.wrROFault:
			h.send(node, h.home(id), msg.upgradeReq, id, false)
			h.setState(node, b, hwROToRW)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
			h.setState(node, b, hwInv)
			h.access(node, id, sema.AccInvalid)
		case msg.evict:
			h.send(node, h.home(id), msg.evictROReq, id, false)
			h.setState(node, b, hwROEvicting)
			h.access(node, id, sema.AccInvalid)
		default:
			return h.errf(node, b, m)
		}

	case hwROToRW:
		switch m.Tag {
		case msg.upgradeAck:
			h.setState(node, b, hwRW)
			h.access(node, id, sema.AccReadWrite)
			h.machine.WakeUp(node, id)
		case msg.getRWResp:
			h.machine.RecvData(node, id, sema.AccReadWrite)
			h.ops(node, 1)
			h.setState(node, b, hwRW)
			h.machine.WakeUp(node, id)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
			h.access(node, id, sema.AccInvalid)
		default:
			h.enqueue(node, b, m)
		}

	case hwRW:
		switch m.Tag {
		case msg.putDataReq:
			h.send(node, h.home(id), msg.putDataResp, id, true)
			h.setState(node, b, hwInv)
			h.access(node, id, sema.AccInvalid)
		default:
			return h.errf(node, b, m)
		}

	case hwROEvicting:
		switch m.Tag {
		case msg.evictROAck:
			h.setState(node, b, hwInv)
		case msg.rdFault:
			h.setState(node, b, hwEvToRO)
		case msg.wrFault:
			h.setState(node, b, hwEvToRW)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwEvToRO:
		switch m.Tag {
		case msg.evictROAck:
			h.send(node, h.home(id), msg.getROReq, id, false)
			h.setState(node, b, hwInvToRO)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwEvToRW:
		switch m.Tag {
		case msg.evictROAck:
			h.send(node, h.home(id), msg.getRWReq, id, false)
			h.setState(node, b, hwInvToRW)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwIdle:
		switch m.Tag {
		case msg.getROReq:
			h.send(node, m.Src, msg.getROResp, id, true)
			b.sharers |= 1 << uint(m.Src)
			h.access(node, id, sema.AccReadOnly)
			h.setState(node, b, hwRS)
		case msg.getRWReq, msg.upgradeReq:
			h.send(node, m.Src, msg.getRWResp, id, true)
			b.owner = m.Src
			h.access(node, id, sema.AccInvalid)
			h.setState(node, b, hwExcl)
		case msg.evictROReq:
			h.send(node, m.Src, msg.evictROAck, id, false)
		case msg.rdFault, msg.wrFault, msg.wrROFault:
			// Stale deferred fault: the home already has full access.
			h.machine.WakeUp(node, id)
			h.ops(node, 1)
		default:
			return h.errf(node, b, m)
		}

	case hwRS:
		switch m.Tag {
		case msg.getROReq:
			if b.sharers&(1<<uint(m.Src)) != 0 {
				h.enqueue(node, b, m)
			} else {
				h.send(node, m.Src, msg.getROResp, id, true)
				b.sharers |= 1 << uint(m.Src)
				h.ops(node, 1)
			}
		case msg.upgradeReq:
			n := h.invalidateSharers(node, b, m.Src, id)
			if n == 0 {
				b.pending, b.pendingSrc = pUpgrade, m.Src
				h.completeAcks(node, b, id)
			} else {
				b.pending, b.pendingSrc, b.pendingAcks = pUpgrade, m.Src, n
				h.setState(node, b, hwAwaitAcks)
			}
		case msg.getRWReq:
			if b.sharers&(1<<uint(m.Src)) != 0 {
				h.enqueue(node, b, m)
				break
			}
			n := h.invalidateSharers(node, b, m.Src, id)
			if n == 0 {
				b.pending, b.pendingSrc = pGrantRW, m.Src
				h.completeAcks(node, b, id)
			} else {
				b.pending, b.pendingSrc, b.pendingAcks = pGrantRW, m.Src, n
				h.setState(node, b, hwAwaitAcks)
			}
		case msg.wrROFault, msg.wrFault:
			n := h.invalidateSharers(node, b, node, id)
			if n == 0 {
				b.pending = pHomeWrite
				h.completeAcks(node, b, id)
			} else {
				b.pending, b.pendingAcks = pHomeWrite, n
				h.setState(node, b, hwAwaitAcks)
			}
		case msg.rdFault:
			// Stale deferred read fault: shared blocks are home-readable.
			h.machine.WakeUp(node, id)
			h.ops(node, 1)
		case msg.evictROReq:
			b.sharers &^= 1 << uint(m.Src)
			h.send(node, m.Src, msg.evictROAck, id, false)
			if b.sharers == 0 {
				h.access(node, id, sema.AccReadWrite)
				h.setState(node, b, hwIdle)
			} else {
				h.setState(node, b, hwRS) // self-transition: retry deferred
			}
		default:
			return h.errf(node, b, m)
		}

	case hwExcl:
		switch m.Tag {
		case msg.getROReq:
			h.send(node, b.owner, msg.putDataReq, id, false)
			b.pending, b.pendingSrc = pGrantRO, m.Src
			h.setState(node, b, hwAwaitPut)
		case msg.getRWReq, msg.upgradeReq:
			h.send(node, b.owner, msg.putDataReq, id, false)
			b.pending, b.pendingSrc = pGrantRW, m.Src
			h.setState(node, b, hwAwaitPut)
		case msg.rdFault:
			h.send(node, b.owner, msg.putDataReq, id, false)
			b.pending = pHomeRead
			h.setState(node, b, hwAwaitPut)
		case msg.wrFault, msg.wrROFault:
			h.send(node, b.owner, msg.putDataReq, id, false)
			b.pending = pHomeWrite
			h.setState(node, b, hwAwaitPut)
		case msg.evictROReq:
			h.send(node, m.Src, msg.evictROAck, id, false)
		default:
			return h.errf(node, b, m)
		}

	case hwAwaitPut:
		switch m.Tag {
		case msg.putDataResp:
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 1)
			h.completePut(node, b, id)
		case msg.evictROReq:
			h.send(node, m.Src, msg.evictROAck, id, false)
		default:
			h.enqueue(node, b, m)
		}

	case hwAwaitAcks:
		switch m.Tag {
		case msg.putNoDataResp:
			b.sharers &^= 1 << uint(m.Src)
			b.pendingAcks--
			h.ops(node, 2)
			if b.pendingAcks == 0 {
				h.completeAcks(node, b, id)
			}
		case msg.evictROReq:
			b.sharers &^= 1 << uint(m.Src)
			h.send(node, m.Src, msg.evictROAck, id, false)
		default:
			h.enqueue(node, b, m)
		}

	default:
		return fmt.Errorf("%s: unknown state %d", h.name, b.state)
	}
	return nil
}

var _ tempest.Engine = (*Engine)(nil)
