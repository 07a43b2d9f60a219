// Package update implements a write-update coherence protocol in Teapot —
// the kind of custom protocol §1 of the paper motivates: "invalidation
// protocols perform poorly for producer-consumer sharing, since
// invalidating outstanding copies forces the consumers to re-request data,
// which requires up to four protocol messages for a small data transfer."
//
// Here writes go through the home, which applies them and multicasts
// UPDATE messages to the other sharers: a consumer receives new data in
// one message instead of invalidate → ack → re-request → response. The
// cost is that every write is a protocol event (write-through); the
// producer-consumer benchmark in the bench suite shows the crossover.
//
// The protocol is also a structural contrast to Stache: the home side
// needs *no* intermediate states at all (it never waits), so the whole
// protocol has only the two cache-side fill suspensions.
package update

import (
	"teapot/internal/mc"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// Source is the write-update protocol in Teapot.
const Source = `
module UpdateSupport begin
  procedure AddSharer(var info : INFO; n : NODE);
  procedure RemoveSharer(var info : INFO; n : NODE);
  function IsSharer(info : INFO; n : NODE) : bool;
  function NumSharers(info : INFO) : int;
  -- Multicasts UPDATE to every sharer except 'excl'; returns how many.
  function SendUpdates(var info : INFO; excl : NODE; id : ID) : int;
end;

protocol Update begin
  var sharers : int;

  state Cache_Inv();
  state Cache_RO();
  state Cache_Fill(C : CONT) transient;
  state Cache_WriteWait(C : CONT) transient;
  state Cache_WriteFill(C : CONT) transient;
  state Cache_Evicting();
  state Home();

  message RD_FAULT;
  message WR_FAULT;
  message WR_RO_FAULT;
  message EVICT;

  message GET_REQ;
  message GET_RESP;
  message WRITE_REQ;
  message WRITE_ACK;
  message UPDATE;
  message EVICT_REQ;
  message EVICT_ACK;
end;

state Update.Cache_Inv()
begin
  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Fill{L});
    WakeUp(id);
  end;

  -- A write without a copy: write through and receive a copy with the
  -- acknowledgement. Distinct from Cache_WriteWait: with no prior copy,
  -- any UPDATE that arrives here is stale and must not be installed.
  message WR_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), WRITE_REQ, id);
    Suspend(L, Cache_WriteFill{L});
    WakeUp(id);
  end;

  -- An update addressed to a copy we already evicted.
  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Cache_Inv", Msg_To_Str(MessageTag));
  end;
end;

state Update.Cache_Fill(C : CONT)
begin
  message GET_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    SetState(info, Cache_RO{});
    Resume(C);
  end;

  -- An update racing our (re-)fill refreshes nothing we hold yet.
  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  -- A stale eviction-handshake completion: we already re-requested.
  message EVICT_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

state Update.Cache_RO()
begin
  -- Writes go through the home; we keep our (refreshed) copy.
  message WR_RO_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), WRITE_REQ, id);
    Suspend(L, Cache_WriteWait{L});
    WakeUp(id);
  end;

  -- A peer's write: new data arrives in a single message (the whole
  -- point of the protocol).
  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
  end;

  message EVICT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), EVICT_REQ, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Evicting{});
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Cache_RO", Msg_To_Str(MessageTag));
  end;
end;

state Update.Cache_WriteWait(C : CONT)
begin
  message WRITE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    SetState(info, Cache_RO{});
    Resume(C);
  end;

  -- Another writer's update crossing ours: apply it (last write wins at
  -- the home; both copies converge on the home's order).
  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
  end;

  -- A stale eviction-handshake completion: we already re-requested.
  message EVICT_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

state Update.Cache_Evicting()
begin
  message EVICT_ACK (id : ID; var info : INFO; src : NODE)
  begin
    SetState(info, Cache_Inv{});
  end;

  -- Updates keep flowing until the home processes our eviction.
  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_Fill{L});
    WakeUp(id);
  end;

  message WR_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_WriteFill{L});
    WakeUp(id);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

-- A write-through from a node with no prior copy: stale updates (from
-- before our WRITE_REQ was processed) must be ignored, not installed.
state Update.Cache_WriteFill(C : CONT)
begin
  message WRITE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    SetState(info, Cache_RO{});
    Resume(C);
  end;

  message UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

-- The home never waits: every request completes in one handler. (Compare
-- Stache's Figure 4 blow-up; the update protocol's "state machine" really
-- is the idealized one.)
state Update.Home()
begin
  message GET_REQ (id : ID; var info : INFO; src : NODE)
  begin
    AddSharer(info, src);
    SendData(src, GET_RESP, id);
    -- With sharers outstanding, the home's own writes must fault so they
    -- can be multicast.
    AccessChange(id, Blk_ReadOnly);
  end;

  message WRITE_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendUpdates(info, src, id);
    AddSharer(info, src);
    SendData(src, WRITE_ACK, id);
    AccessChange(id, Blk_ReadOnly);
  end;

  message EVICT_REQ (id : ID; var info : INFO; src : NODE)
  begin
    RemoveSharer(info, src);
    Send(src, EVICT_ACK, id);
    if (NumSharers(info) = 0) then
      AccessChange(id, Blk_ReadWrite);
    endif;
  end;

  -- The home processor writes the master copy and multicasts the new
  -- data; while sharers remain, the next write faults again.
  message WR_RO_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    SendUpdates(info, MyNode(), id);
    if (NumSharers(info) = 0) then
      AccessChange(id, Blk_ReadWrite);
    endif;
    WakeUp(id);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Home", Msg_To_Str(MessageTag));
  end;
end;
`

// Routines is UpdateSupport: Stache's sharer-set routines (the protocol
// declares all but ClearSharers and InvalidateSharers) and the
// data-carrying UPDATE multicast.
var Routines = stache.Routines.With(stache.Table{
	"SendUpdates": {Vars: []string{"sharers"}, Msg: "UPDATE", Equivariant: true, Local: true, Body: func(c stache.Call) vm.Value {
		return vm.IntVal(c.Multicast(c.Mask(0)&^c.Bit(1), c.Arg(2), true))
	}},
})

// Events is the verification event generator: reads, write-throughs and
// evictions in every stable state.
type Events struct {
	inv, ro, home []mc.Event // the lists Enabled hands out, built once
	update        int
}

// NewEvents builds the generator.
func NewEvents(p *runtime.Protocol) *Events {
	wrro := mc.Event{Name: "WR_RO_FAULT", Tag: p.MsgIndex("WR_RO_FAULT"), Stalls: true}
	return &Events{
		inv: []mc.Event{
			{Name: "RD_FAULT", Tag: p.MsgIndex("RD_FAULT"), Stalls: true},
			{Name: "WR_FAULT", Tag: p.MsgIndex("WR_FAULT"), Stalls: true},
		},
		ro:     []mc.Event{wrro, {Name: "EVICT", Tag: p.MsgIndex("EVICT")}},
		home:   []mc.Event{wrro},
		update: p.MsgIndex("UPDATE"),
	}
}

// Enabled implements mc.EventGen.
func (g *Events) Enabled(w *mc.World, node, block int) []mc.Event {
	switch w.StateName(node, block) {
	case "Cache_Inv":
		return g.inv
	case "Cache_RO":
		return g.ro
	case "Home":
		// The home's write completes locally (it is woken in-handler), so
		// unconstrained generation would flood the channels with UPDATEs;
		// model a depth-1 store buffer: no new write while this node's
		// previous update multicast is still in flight.
		if w.IsHome(node, block) && w.Access(node, block) == sema.AccReadOnly {
			pending := w.AnyMessage(func(m *runtime.Message) bool {
				return m.Src == node && m.ID == block && m.Tag == g.update
			})
			if !pending {
				return g.home
			}
		}
	}
	return nil
}

// SymmetricEvents implements mc.EquivariantEvents: enablement reads state
// names and sharer counts only, never concrete node ids.
func (e *Events) SymmetricEvents() {}
