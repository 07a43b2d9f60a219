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
	// The lists Enabled hands out, built once: by state name, and the two
	// a pending upgrade adds a fault to.
	byState              map[string][]mc.Event
	upgradeWR, upgradeRD []mc.Event
	bufferedSlot         int
}

// MaxBuffered bounds how many writes may accumulate in the buffer between
// synchronizations (a bounded write buffer; unbounded counting would make
// the state space infinite).
const MaxBuffered = 2

// NewEvents builds the generator.
func NewEvents(p *runtime.Protocol) *Events {
	rd := mc.Event{Name: "RD_FAULT", Tag: p.MsgIndex("RD_FAULT"), Stalls: true}
	wr := mc.Event{Name: "WR_FAULT", Tag: p.MsgIndex("WR_FAULT"), Stalls: true}
	wrro := mc.Event{Name: "WR_RO_FAULT", Tag: p.MsgIndex("WR_RO_FAULT"), Stalls: true}
	syncEv := mc.Event{Name: "SYNC", Tag: p.MsgIndex("SYNC"), Stalls: true}
	g := &Events{
		byState: map[string][]mc.Event{
			"Cache_Inv":         {rd, wr, syncEv},
			"Cache_RO":          {wrro, syncEv},
			"Cache_RW":          {syncEv},
			"Cache_Buf_Fill":    {rd, syncEv},
			"Cache_Buf_Upgrade": {syncEv},
			"Home_RS":           {wrro, syncEv},
			"Home_Excl":         {rd, wr, syncEv},
			"Home_Idle":         {syncEv},
		},
		upgradeWR:    []mc.Event{syncEv, wrro},
		upgradeRD:    []mc.Event{syncEv, rd},
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
	state := w.StateName(node, block)
	if state == "Cache_Buf_Upgrade" {
		switch w.Access(node, block) {
		case sema.AccReadOnly:
			// Upgrade still pending with the read copy intact: stores
			// fault read-only and accumulate in the buffer (bounded).
			if g.bufferedSlot >= 0 && w.BlockVarInt(node, block, g.bufferedSlot) < MaxBuffered {
				return g.upgradeWR
			}
		case sema.AccBuffered:
			// The copy was recalled mid-upgrade: stores buffer silently,
			// loads fault and stall for the grant.
			return g.upgradeRD
		}
	}
	return g.byState[state]
}

// SymmetricEvents implements mc.EquivariantEvents: enablement reads state
// names and the per-block buffered counter only.
func (e *Events) SymmetricEvents() {}
