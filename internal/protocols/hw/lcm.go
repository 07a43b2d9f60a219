package hw

import (
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// Base LCM, hand-written: what it adds to Stache and nothing else — ten
// tags, six states, one pending action, one block field, and the (state,
// tag) rows below, which dispatch consults before Stache's. No row here
// replaces a Stache row; outside a phase the protocol is Stache.

type lcmMsgs struct {
	beginEv, endEv, begin                        int
	getLCMReq, getLCMResp, putAccum, putAccumAck int
	fwdReq, fwdBounce, update                    int
}

const (
	hwLCMIdle hwState = hwAwaitAcks + 1 + iota
	hwLCMDirty
	hwLCMWait
	hwAccumWait // cache: flushed at phase entry, awaiting PUT_ACCUM_ACK
	hwLCM
	hwAwaitBegin // home: acknowledged an entry flush, awaiting BEGIN_LCM
)

var lcmStateNames = []string{
	"Cache_LCM_Idle", "Cache_LCM_Dirty", "Cache_LCM_Wait", "Cache_AwaitAccumAck",
	"Home_LCM", "Home_Await_BEGIN_LCM",
}

// pGrantLCM: after acks or put-data, grant a private phase copy.
const pGrantLCM = pHomeWrite + 1

type lcmBlock struct {
	copies int // phase copies granted and not yet reconciled
}

// NewLCM builds the hand-written base-LCM engine, wire-compatible with the
// compiled protocol p.
func NewLCM(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) *Engine {
	h := NewStache(p, nodes, blocks, m)
	h.name = "lcm-hw"
	h.lcm = &lcmMsgs{
		beginEv: p.MsgIndex("BEGIN_LCM_EV"), endEv: p.MsgIndex("END_LCM_EV"),
		begin:     p.MsgIndex("BEGIN_LCM"),
		getLCMReq: p.MsgIndex("GET_LCM_REQ"), getLCMResp: p.MsgIndex("GET_LCM_RESP"),
		putAccum: p.MsgIndex("PUT_ACCUM"), putAccumAck: p.MsgIndex("PUT_ACCUM_ACK"),
		fwdReq: p.MsgIndex("FWD_LCM_REQ"), fwdBounce: p.MsgIndex("FWD_BOUNCE"),
		update: p.MsgIndex("LCM_UPDATE"),
	}
	return h
}

// grantLCM hands out one private phase copy.
func (h *Engine) grantLCM(node int, b *hwBlock, id, src int) {
	b.copies++
	b.sharers |= 1 << uint(src) // consumer tracking
	h.ops(node, 3)
	h.send(node, src, h.lcm.getLCMResp, id, true)
}

// completeLCM finishes a pGrantLCM transition out of either await state.
func (h *Engine) completeLCM(node int, b *hwBlock, id int) {
	h.grantLCM(node, b, id, b.pendingSrc)
	h.access(node, id, sema.AccReadWrite)
	h.setState(node, b, hwLCM)
}

// dispatchLCM runs LCM's row for (b.state, m.Tag) and reports whether it
// has one.
func (h *Engine) dispatchLCM(node int, b *hwBlock, m *runtime.Message) (bool, error) {
	msg, lcm := &h.msg, h.lcm
	id := m.ID
	switch b.state {

	// ---- Rows added to Stache's cache states ----

	case hwInv:
		switch m.Tag {
		case msg.putDataReq:
			h.ops(node, 1) // stale recall, satisfied by a reconciliation
		case lcm.beginEv:
			h.setState(node, b, hwLCMIdle)
		case lcm.update:
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 1)
			h.setState(node, b, hwRO)
		default:
			return false, nil
		}

	case hwInvToRO, hwInvToRW, hwROToRW:
		switch m.Tag {
		case msg.putDataReq:
			h.ops(node, 1) // stale recall
		default:
			return false, nil
		}

	case hwRO:
		switch m.Tag {
		case msg.putDataReq:
			h.ops(node, 1) // stale recall
		case lcm.beginEv:
			h.send(node, h.home(id), lcm.begin, id, false)
			h.access(node, id, sema.AccInvalid)
			h.setState(node, b, hwLCMIdle)
		default:
			return false, nil
		}

	case hwRW:
		switch m.Tag {
		case lcm.beginEv:
			// Figure 11's FlushCopy: reconcile and announce the entry; the
			// BEGIN_LCM chases the PUT_ACCUM into the home.
			h.send(node, h.home(id), lcm.putAccum, id, true)
			h.send(node, h.home(id), lcm.begin, id, false)
			h.access(node, id, sema.AccInvalid)
			h.setState(node, b, hwAccumWait)
		default:
			return false, nil
		}

	// ---- LCM cache states ----

	case hwAccumWait:
		switch m.Tag {
		case lcm.putAccumAck:
			h.setState(node, b, hwLCMIdle)
		case msg.putDataReq:
			h.ops(node, 1) // recall crossed our reconciliation
		default:
			h.enqueue(node, b, m)
		}

	case hwLCMIdle:
		switch m.Tag {
		case msg.rdFault, msg.wrFault:
			h.send(node, h.home(id), lcm.getLCMReq, id, false)
			h.setState(node, b, hwLCMWait)
		case lcm.endEv:
			h.setState(node, b, hwInv)
		case lcm.beginEv:
			h.ops(node, 1) // idempotent re-entry
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		case msg.putDataReq:
			h.ops(node, 1) // stale recall
		case lcm.fwdReq:
			h.send(node, h.home(id), lcm.fwdBounce, id, false) // payload elided in HW
		case lcm.putAccumAck, lcm.update:
			// stale
		default:
			return true, h.errf(node, b, m)
		}

	case hwLCMWait:
		switch m.Tag {
		case lcm.getLCMResp:
			h.machine.RecvData(node, id, sema.AccReadWrite)
			h.ops(node, 1)
			h.setState(node, b, hwLCMDirty)
			h.machine.WakeUp(node, id)
		case msg.putNoDataReq:
			h.send(node, h.home(id), msg.putNoDataResp, id, false)
		case msg.putDataReq:
			h.ops(node, 1) // stale recall
		case lcm.fwdReq:
			h.send(node, h.home(id), lcm.fwdBounce, id, false)
		case lcm.update:
			// stale
		default:
			h.enqueue(node, b, m)
		}

	case hwLCMDirty:
		switch m.Tag {
		case lcm.endEv:
			h.send(node, h.home(id), lcm.putAccum, id, true)
			h.access(node, id, sema.AccInvalid)
			h.setState(node, b, hwInv)
		case lcm.fwdReq:
			h.send(node, m.Src, lcm.getLCMResp, id, true)
		case msg.putDataReq:
			h.ops(node, 1) // stale recall
		case lcm.putAccumAck, lcm.update:
			// stale
		default:
			return true, h.errf(node, b, m)
		}

	// ---- Rows added to Stache's home states ----

	case hwIdle:
		switch m.Tag {
		case lcm.getLCMReq:
			h.grantLCM(node, b, id, m.Src)
			h.access(node, id, sema.AccReadWrite)
			h.setState(node, b, hwLCM)
		case lcm.putAccum:
			h.machine.RecvData(node, id, sema.AccReadWrite)
			h.ops(node, 2) // merge
		case lcm.begin, lcm.beginEv, lcm.endEv:
			h.ops(node, 1) // stale / purely local
		default:
			return false, nil
		}

	case hwRS:
		switch m.Tag {
		case lcm.getLCMReq:
			n := h.invalidateSharers(node, b, m.Src, id)
			b.pending, b.pendingSrc, b.pendingAcks = pGrantLCM, m.Src, n
			if n == 0 {
				h.completeAcks(node, b, id)
			} else {
				h.setState(node, b, hwAwaitAcks)
			}
		case lcm.begin:
			b.sharers &^= 1 << uint(m.Src)
			h.ops(node, 1)
			if b.sharers == 0 {
				h.access(node, id, sema.AccReadWrite)
				h.setState(node, b, hwIdle)
			} else {
				h.setState(node, b, hwRS)
			}
		case lcm.beginEv, lcm.endEv:
			h.ops(node, 1)
		default:
			return false, nil
		}

	case hwExcl:
		switch m.Tag {
		case lcm.putAccum:
			// Figure 11: the owner reconciles on phase entry.
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 2)
			h.send(node, m.Src, lcm.putAccumAck, id, false)
			h.setState(node, b, hwAwaitBegin)
		case lcm.begin:
			if m.Src == b.owner {
				h.enqueue(node, b, m) // overtook the owner's reconciliation
			} else {
				h.ops(node, 1) // stale
			}
		case lcm.beginEv, lcm.endEv:
			h.ops(node, 1) // purely local
		case lcm.getLCMReq:
			h.send(node, b.owner, msg.putDataReq, id, false)
			b.pending, b.pendingSrc = pGrantLCM, m.Src
			h.setState(node, b, hwAwaitPut)
		case msg.putDataResp:
			// Voluntary give-back: the owner answered a stale recall.
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 1)
			h.access(node, id, sema.AccReadWrite)
			h.setState(node, b, hwIdle)
		default:
			return false, nil
		}

	case hwAwaitPut:
		switch m.Tag {
		case lcm.putAccum:
			// The owner reconciled (phase entry) instead of answering the
			// recall; the data came back all the same.
			h.machine.RecvData(node, id, sema.AccReadOnly)
			h.ops(node, 2)
			h.send(node, m.Src, lcm.putAccumAck, id, false)
			h.completePut(node, b, id)
		default:
			return false, nil
		}

	// ---- LCM home states ----

	case hwAwaitBegin:
		switch m.Tag {
		case lcm.begin:
			h.access(node, id, sema.AccReadWrite)
			h.setState(node, b, hwIdle)
		default:
			h.enqueue(node, b, m)
		}

	case hwLCM:
		switch m.Tag {
		case lcm.getLCMReq:
			h.grantLCM(node, b, id, m.Src)
		case lcm.fwdBounce:
			h.send(node, m.Src, lcm.getLCMResp, id, true)
		case lcm.putAccum:
			h.machine.RecvData(node, id, sema.AccReadWrite)
			h.ops(node, 2)
			b.copies--
			if b.copies == 0 {
				b.sharers = 0 // ClearConsumers (base variant)
				h.setState(node, b, hwIdle)
			}
		case msg.getROReq, msg.getRWReq, msg.upgradeReq:
			h.enqueue(node, b, m)
		case msg.evictROReq:
			h.send(node, m.Src, msg.evictROAck, id, false)
		case lcm.begin, lcm.beginEv, lcm.endEv:
			h.ops(node, 1)
		default:
			return true, h.errf(node, b, m)
		}

	default:
		return false, nil
	}
	return true, nil
}
