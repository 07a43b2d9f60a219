// Package bufwrite implements the paper's Buffered-write variant of Stache
// (§6): "a variant of the Stache protocol that attempts to overlap the
// latency of acquiring a writable copy of a cache block with future
// computation by buffering writes until a synchronization point. The
// modification to Stache code involved adding 4 new states, 4 new message
// types, and some support routines. This protocol requires an application
// to have the synchronization needed by the weakly consistent memory
// model."
//
// Here a write fault does not stall the processor: the write completes
// into a local buffer (Tempest access mode Blk_Buffered) while the
// writable copy is acquired in the background; a SYNC event per block
// flushes — stalling only on blocks whose acquisition is still in flight.
// Like the paper's version, it is composed from the Stache source.
package bufwrite

import "teapot/internal/protocols/stache"

// decls extends the protocol declaration block: one new event message and
// the paper's four new states.
const decls = `
  var buffered : int;  -- outstanding buffered writes (merged on grant)

  state Cache_Buf_Fill();
  state Cache_Buf_Upgrade();
  state Cache_SyncFill(C : CONT) transient;
  state Cache_SyncUpgrade(C : CONT) transient;

  message SYNC;
`

// newStates are the buffered acquisition and flush states.
const newStates = `
----------------------------------------------------------------------
-- Buffered-write states
----------------------------------------------------------------------

-- A writable copy is being acquired while the processor keeps running;
-- its stores land in the write buffer.
state BufWrite.Cache_Buf_Fill()
begin
  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
  end;

  -- A read cannot be buffered: wait for the fill.
  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_SyncFill{L});
    WakeUp(id);
  end;

  message SYNC (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_SyncFill{L});
    WakeUp(id);
  end;

  -- Invalidation addressed to a previous tenure.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

-- An upgrade is in flight; the old read-only copy still serves loads and
-- new stores are buffered (they re-fault and accumulate).
state BufWrite.Cache_Buf_Upgrade()
begin
  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    AccessChange(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
  end;

  -- More stores while upgrading: buffer them too.
  message WR_RO_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    buffered := buffered + 1;
    WakeUp(id);
  end;

  -- We lost the race: the read copy is gone, but new stores keep landing
  -- in the write buffer while the full grant is fetched. Dropping to
  -- Blk_Invalidate here would let a store fault as WR_FAULT, which no
  -- state on this path handles — the deferred fault would resurface in
  -- Cache_RW after the grant and kill the run.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
    AccessChange(id, Blk_Buffered);
  end;

  -- A load after the lost race (the old copy no longer serves reads):
  -- stall until the full grant arrives.
  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_SyncUpgrade{L});
    WakeUp(id);
  end;

  message SYNC (id : ID; var info : INFO; src : NODE)
  begin
    Suspend(L, Cache_SyncUpgrade{L});
    WakeUp(id);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

-- Stalled at a synchronization point (or on a read) until the buffered
-- fill completes.
state BufWrite.Cache_SyncFill(C : CONT)
begin
  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
    Resume(C);
  end;

  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

state BufWrite.Cache_SyncUpgrade(C : CONT)
begin
  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    AccessChange(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
    Resume(C);
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    buffered := 0;
    SetState(info, Cache_RW{});
    Resume(C);
  end;

  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;
`

// syncNop is the SYNC handler for states with nothing pending.
const syncNop = `
  message SYNC (id : ID; var info : INFO; src : NODE)
  begin
    WakeUp(id);
  end;
`

// bufferedWrFault replaces Cache_Inv's blocking write fault.
const bufferedWrFault = `  message WR_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
    buffered := buffered + 1;
    AccessChange(id, Blk_Buffered);
    SetState(info, Cache_Buf_Fill{});
    WakeUp(id);
  end;
`

// bufferedUpgrade replaces Cache_RO's blocking upgrade fault.
const bufferedUpgrade = `  message WR_RO_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), UPGRADE_REQ, id);
    buffered := buffered + 1;
    SetState(info, Cache_Buf_Upgrade{});
    WakeUp(id);
  end;
`

// Source is the assembled Buffered-write protocol: the blocking write-fault
// handlers replaced by buffering ones, SYNC completing at once in the stable
// states, and Cache_RO_To_RW — unreachable once the buffered upgrade no
// longer suspends into it — dropped.
var Source = stache.Extend("bufwrite", "BufWrite", stache.Source).
	Declare(decls).
	Replace(`  message WR_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
    Suspend(L, Cache_Inv_To_RW{L});
    WakeUp(id);
  end;
`, bufferedWrFault).
	Replace(`  message WR_RO_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), UPGRADE_REQ, id);
    Suspend(L, Cache_RO_To_RW{L});
    WakeUp(id);
  end;
`, bufferedUpgrade).
	InsertBeforeDefault("Cache_Inv", syncNop).
	InsertBeforeDefault("Cache_RO", syncNop).
	InsertBeforeDefault("Cache_RW", syncNop).
	InsertBeforeDefault("Home_Idle", syncNop).
	InsertBeforeDefault("Home_RS", syncNop).
	InsertBeforeDefault("Home_Excl", syncNop).
	Drop("Cache_RO_To_RW").
	Source() + newStates
