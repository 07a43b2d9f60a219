package bufwrite

import (
	"teapot/internal/mc"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// Events generates loads, stores, and synchronization operations randomly
// interleaved — the paper's buffered-write event loop ("each node must
// handle synchronization operations randomly interleaved with the loads
// and stores", ~100 lines of Murphi).
type Events struct {
	rd, wr, wrro, sync int
	bufferedSlot       int
}

// MaxBuffered bounds how many writes may accumulate in the buffer between
// synchronizations (a bounded write buffer; unbounded counting would make
// the state space infinite).
const MaxBuffered = 2

// NewEvents builds the generator.
func NewEvents(p *runtime.Protocol) *Events {
	g := &Events{
		rd:           p.MsgIndex("RD_FAULT"),
		wr:           p.MsgIndex("WR_FAULT"),
		wrro:         p.MsgIndex("WR_RO_FAULT"),
		sync:         p.MsgIndex("SYNC"),
		bufferedSlot: -1,
	}
	for _, v := range p.Sema().ProtVars {
		if v.Name == "buffered" {
			g.bufferedSlot = v.Index
		}
	}
	return g
}

// Enabled implements mc.EventGen.
func (g *Events) Enabled(w *mc.World, node, block int) []mc.Event {
	syncEv := mc.Event{Name: "SYNC", Tag: g.sync, Stalls: true}
	switch w.StateName(node, block) {
	case "Cache_Inv":
		return []mc.Event{
			{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
			{Name: "WR_FAULT", Tag: g.wr, Stalls: true},
			syncEv,
		}
	case "Cache_RO":
		return []mc.Event{
			{Name: "WR_RO_FAULT", Tag: g.wrro, Stalls: true},
			syncEv,
		}
	case "Cache_RW":
		return []mc.Event{syncEv}
	case "Cache_Buf_Fill":
		return []mc.Event{
			{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
			syncEv,
		}
	case "Cache_Buf_Upgrade":
		evs := []mc.Event{syncEv}
		switch w.Access(node, block) {
		case sema.AccReadOnly:
			// Upgrade still pending with the read copy intact: stores
			// fault read-only and accumulate in the buffer (bounded).
			if g.bufferedSlot >= 0 && w.BlockVarInt(node, block, g.bufferedSlot) < MaxBuffered {
				evs = append(evs, mc.Event{Name: "WR_RO_FAULT", Tag: g.wrro, Stalls: true})
			}
		case sema.AccBuffered:
			// The copy was recalled mid-upgrade: stores buffer silently,
			// loads fault and stall for the grant.
			evs = append(evs, mc.Event{Name: "RD_FAULT", Tag: g.rd, Stalls: true})
		}
		return evs
	case "Home_RS":
		return []mc.Event{{Name: "WR_RO_FAULT", Tag: g.wrro, Stalls: true}, syncEv}
	case "Home_Excl":
		return []mc.Event{
			{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
			{Name: "WR_FAULT", Tag: g.wr, Stalls: true},
			syncEv,
		}
	case "Home_Idle":
		return []mc.Event{syncEv}
	}
	return nil
}

// SymmetricEvents implements mc.EquivariantEvents: enablement reads state
// names and the per-block buffered counter only.
func (e *Events) SymmetricEvents() {}
