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
	// The lists Enabled hands out, by state name and built once: inPhase
	// while a phase is active for the block, quiet otherwise.
	inPhase, quiet map[string][]mc.Event
	phaseTags      map[int]struct{}
}

// NewEvents builds the generator for a compiled LCM protocol.
func NewEvents(p *runtime.Protocol) *Events {
	rd := mc.Event{Name: "RD_FAULT", Tag: p.MsgIndex("RD_FAULT"), Stalls: true}
	wr := mc.Event{Name: "WR_FAULT", Tag: p.MsgIndex("WR_FAULT"), Stalls: true}
	wrro := mc.Event{Name: "WR_RO_FAULT", Tag: p.MsgIndex("WR_RO_FAULT"), Stalls: true}
	vote := mc.Event{Name: "BEGIN_LCM_EV", Tag: p.MsgIndex("BEGIN_LCM_EV")}
	endEv := mc.Event{Name: "END_LCM_EV", Tag: p.MsgIndex("END_LCM_EV")}
	g := &Events{phaseTags: make(map[int]struct{})}
	idle, dirty := []mc.Event{rd, wr, endEv}, []mc.Event{endEv}
	g.inPhase = map[string][]mc.Event{
		"Cache_Inv": {vote},
		"Cache_RO":  {vote},
		// Figure 11's race: the owner's reconciliation chases other
		// nodes' phase activity into the home.
		"Cache_RW":        {vote},
		"Cache_LCM_Idle":  idle,
		"Cache_LCM_Dirty": dirty,
	}
	// Normal (Stache-mode) accesses happen only outside phases.
	g.quiet = map[string][]mc.Event{
		"Cache_Inv":       {vote, rd, wr},
		"Cache_RO":        {vote, wrro},
		"Cache_RW":        {vote},
		"Cache_LCM_Idle":  idle,
		"Cache_LCM_Dirty": dirty,
		"Home_RS":         {wrro},
		"Home_Excl":       {rd, wr},
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
	evs := g.quiet
	if g.phaseActive(w, block) {
		evs = g.inPhase
	}
	return evs[w.StateName(node, block)]
}

// SymmetricEvents implements mc.EquivariantEvents: phase detection scans
// state names and per-block message predicates, never concrete node ids.
func (e *Events) SymmetricEvents() {}
