package stache

import (
	"teapot/internal/mc"
	"teapot/internal/runtime"
)

// Events is the nondeterministic event generator for Stache verification:
// a processor (the checker asks only about running ones) may read, write,
// or (on a clean remote copy) evict any block — the paper's "each node should process any stream of
// loads and stores to any shared addresses" (§7, ~50 lines of Murphi for
// Stache).
type Events struct {
	byState map[string][]mc.Event // built once; Enabled hands the lists out
}

// NewEvents builds the generator for a compiled Stache-family protocol.
func NewEvents(p *runtime.Protocol) *Events {
	faults := []mc.Event{
		{Name: "RD_FAULT", Tag: p.MsgIndex("RD_FAULT"), Stalls: true},
		{Name: "WR_FAULT", Tag: p.MsgIndex("WR_FAULT"), Stalls: true},
	}
	wrro := mc.Event{Name: "WR_RO_FAULT", Tag: p.MsgIndex("WR_RO_FAULT"), Stalls: true}
	return &Events{byState: map[string][]mc.Event{
		"Cache_Inv": faults,
		"Cache_RO":  {wrro, {Name: "EVICT", Tag: p.MsgIndex("EVICT")}},
		// The eviction handshake does not stall the processor, which may
		// fault on the (now inaccessible) block before the ack arrives.
		"Cache_RO_Evicting": faults,
		// The home processor writing a shared block.
		"Home_RS":   {wrro},
		"Home_Excl": faults,
	}}
}

// Enabled implements mc.EventGen.
func (g *Events) Enabled(w *mc.World, node, block int) []mc.Event {
	return g.byState[w.StateName(node, block)]
}

// buggyHandler is the race handler whose removal reintroduces a deadlock
// of the kind §7 reports Murphi finding in the heavily-used hand-written
// Stache ("a particular interleaving of messages in the network"): if a
// node waiting for an upgrade merely queues the home's invalidation, the
// home waits forever for the acknowledgement while the node waits forever
// for the upgrade response.
const buggyHandler = `  -- The home invalidated us before seeing our upgrade: acknowledge, lose
  -- the copy, and keep waiting — the home will answer the upgrade with a
  -- full GET_RW_RESP once it processes it (we are no longer a sharer).
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
  end;
`

// BuggySource is Stache with the upgrade/invalidate race handler removed;
// the model checker finds the resulting deadlock (see the verification
// example and mc tests).
var BuggySource = Extend("stache-buggy", "Stache", Source).Replace(buggyHandler, "").Source()

// SymmetricEvents implements mc.EquivariantEvents: enablement depends only
// on state names, stall status, and home-ness — all permutation-covariant.
func (e *Events) SymmetricEvents() {}

// LocalEvents implements mc.LocalEvents: Enabled reads only the block's
// state name.
func (e *Events) LocalEvents() {}
