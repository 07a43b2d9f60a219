package lcm

import (
	"teapot/internal/mc"
	"teapot/internal/runtime"
)

// Events is the LCM verification event generator. The paper notes LCM
// event generation is by far the most involved part (~400 lines of
// Murphi): it must express the application's weak-ordering discipline —
// normal (Stache-mode) accesses happen only outside phases — while still
// exercising the phase-entry races, most importantly Figure 11's
// reconciliation chasing another node's activity into a pending home.
//
// Phase entries themselves are *always* enabled from stable states: the
// lazy protocol tolerates entries racing invalidation epochs, and the
// checker proves it.
type Events struct {
	rd, wr, wrro int
	begin, end   int
	phaseTags    map[int]struct{}
}

// NewEvents builds the generator for a compiled LCM protocol.
func NewEvents(p *runtime.Protocol) *Events {
	g := &Events{
		rd:        p.MsgIndex("RD_FAULT"),
		wr:        p.MsgIndex("WR_FAULT"),
		wrro:      p.MsgIndex("WR_RO_FAULT"),
		begin:     p.MsgIndex("BEGIN_LCM_EV"),
		end:       p.MsgIndex("END_LCM_EV"),
		phaseTags: make(map[int]struct{}),
	}
	for _, name := range []string{
		"BEGIN_LCM", "GET_LCM_REQ", "GET_LCM_RESP",
		"PUT_ACCUM", "PUT_ACCUM_ACK", "FWD_LCM_REQ", "FWD_BOUNCE",
		"LCM_UPDATE",
	} {
		if i := p.MsgIndex(name); i >= 0 {
			g.phaseTags[i] = struct{}{}
		}
	}
	return g
}

// phaseActive reports whether any node is inside an LCM phase for the
// block or phase traffic is still draining; the application's barriers
// guarantee no normal accesses happen then.
func (g *Events) phaseActive(w *mc.World, block int) bool {
	for n := 0; n < w.Nodes(); n++ {
		switch w.StateName(n, block) {
		case "Cache_LCM_Idle", "Cache_LCM_Dirty", "Cache_LCM_Wait",
			"Cache_AwaitAccumAck", "Home_LCM", "Home_Await_BEGIN_LCM":
			return true
		}
	}
	return w.AnyMessage(func(m *runtime.Message) bool {
		_, ok := g.phaseTags[m.Tag]
		return ok && m.ID == block
	})
}

// Enabled implements mc.EventGen.
func (g *Events) Enabled(w *mc.World, node, block int) []mc.Event {
	active := g.phaseActive(w, block)
	vote := mc.Event{Name: "BEGIN_LCM_EV", Tag: g.begin}
	endEv := mc.Event{Name: "END_LCM_EV", Tag: g.end}
	switch w.StateName(node, block) {
	case "Cache_Inv":
		evs := []mc.Event{vote}
		if !active {
			evs = append(evs,
				mc.Event{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
				mc.Event{Name: "WR_FAULT", Tag: g.wr, Stalls: true})
		}
		return evs
	case "Cache_RO":
		evs := []mc.Event{vote}
		if !active {
			evs = append(evs, mc.Event{Name: "WR_RO_FAULT", Tag: g.wrro, Stalls: true})
		}
		return evs
	case "Cache_RW":
		// Figure 11's race: the owner's reconciliation chases other
		// nodes' phase activity into the home.
		return []mc.Event{vote}
	case "Cache_LCM_Idle":
		return []mc.Event{
			{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
			{Name: "WR_FAULT", Tag: g.wr, Stalls: true},
			endEv,
		}
	case "Cache_LCM_Dirty":
		return []mc.Event{endEv}
	case "Home_RS":
		if !active {
			return []mc.Event{{Name: "WR_RO_FAULT", Tag: g.wrro, Stalls: true}}
		}
	case "Home_Excl":
		if !active {
			return []mc.Event{
				{Name: "RD_FAULT", Tag: g.rd, Stalls: true},
				{Name: "WR_FAULT", Tag: g.wr, Stalls: true},
			}
		}
	}
	return nil
}

// SymmetricEvents implements mc.EquivariantEvents: phase detection scans
// state names and per-block message predicates, never concrete node ids.
func (e *Events) SymmetricEvents() {}
