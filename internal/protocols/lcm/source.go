// Package lcm implements the LCM protocol (Larus, Richards & Viswanathan,
// ASPLOS '94) in Teapot, plus the three variants §6 of the Teapot paper
// reports building "easily" once the base protocol existed: LCM-Update
// (eagerly pushes reconciled data to consumers at the end of a phase),
// LCM-MCC (serves phase copies from other copy-holders), and LCM-Both.
//
// LCM exploits controlled inconsistency: inside an LCM phase every node
// may obtain a private, writable copy of a block that is *not* kept
// coherent; at the end of the phase each node reconciles its modifications
// with the home node (PUT_ACCUM), restoring consistency. Outside phases
// the protocol behaves exactly like Stache, so the source here is composed
// from the Stache source text — the same "most new protocols will be
// variants of existing ones" workflow the paper advocates.
//
// Phase bookkeeping is lazy, per the application's weak-ordering
// discipline (barriers around phases): a node entering a phase notifies
// the home only if it holds a copy (its BEGIN_LCM doubles as the eviction
// notice, and an owner reconciles with PUT_ACCUM first — Figure 11's
// FlushCopy/EnterLCM pair); the home enters phase mode on the first
// GET_LCM_REQ and leaves it when every granted copy has been reconciled.
//
// The composition reproduces Figure 11 literally: a home node in Home_Excl
// that receives PUT_ACCUM acknowledges it and suspends into
// Home_Await_BEGIN_LCM; a GET_RO_REQ arriving meanwhile is queued; the
// BEGIN_LCM resumes the suspended transition.
package lcm

import "teapot/internal/protocols/stache"

// Variant selects an LCM flavor.
type Variant int

// LCM variants.
const (
	Base Variant = iota
	Update
	MCC
	Both
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "lcm"
	case Update:
		return "lcm-update"
	case MCC:
		return "lcm-mcc"
	case Both:
		return "lcm-both"
	}
	return "lcm-?"
}

// lcmDecls extends the protocol declaration block.
const lcmDecls = `
  -- LCM phase bookkeeping.
  var copies : int;    -- private copies granted and not yet reconciled
  var holder : NODE;   -- a recent copy-holder (MCC forwarding)

  -- LCM phase states.
  state Cache_LCM_Idle();
  state Cache_LCM_Dirty();
  state Cache_LCM_Wait(C : CONT) transient;
  state Cache_AwaitAccumAck(C : CONT) transient;
  state Home_LCM();
  state Home_Await_BEGIN_LCM(C : CONT) transient;

  -- LCM events and messages.
  message BEGIN_LCM_EV;
  message END_LCM_EV;
  message BEGIN_LCM;
  message GET_LCM_REQ;
  message GET_LCM_RESP;
  message PUT_ACCUM;
  message PUT_ACCUM_ACK;
  message FWD_LCM_REQ;
  message FWD_BOUNCE;
  message LCM_UPDATE;
`

// phase-entry handlers inserted into the Stache cache states.
const cacheInvEntry = `
  -- LCM phase entry with no local copy is purely local: the home learns
  -- of our participation lazily, from our first GET_LCM_REQ.
  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    SetState(info, Cache_LCM_Idle{});
  end;

  -- An eager update for a consumer of the previous phase: install a
  -- read-only copy.
  message LCM_UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    SetState(info, Cache_RO{});
  end;

  -- A recall that crossed our phase-entry reconciliation and arrived
  -- after the whole phase ended: the flush already returned the data.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const cacheROEntry = `
  -- LCM phase entry while holding a clean shared copy: the BEGIN_LCM
  -- doubles as the eviction notice. Wait until the home confirms (by
  -- processing it and any racing invalidation) before using phase copies.
  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), BEGIN_LCM, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_LCM_Idle{});
  end;
`

const cacheRWEntry = `
  -- LCM phase entry while owning the block: reconcile first (Figure 11's
  -- FlushCopy), then announce the phase entry; the home acknowledges the
  -- flush once it has installed the data.
  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_ACCUM, id);
    Send(HomeNode(id), BEGIN_LCM, id);
    AccessChange(id, Blk_Invalidate);
    Suspend(L, Cache_AwaitAccumAck{L});
    SetState(info, Cache_LCM_Idle{});
  end;
`

// home-side handlers inserted into the Stache home states.
const homeIdleEntry = `
  -- First phase request reaching an idle home: enter phase mode.
  message GET_LCM_REQ (id : ID; var info : INFO; src : NODE)
  begin
    copies := copies + 1;
    RecordConsumer(info, src);
    holder := src;
    SendData(src, GET_LCM_RESP, id);
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_LCM{});
  end;

  -- A reconciliation whose copy was granted in a phase that already
  -- drained here (possible only under reordering): merge it late.
  message PUT_ACCUM (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    Merge(info, src);
  end;

  -- A stale eviction-style phase entry from a node we no longer track.
  message BEGIN_LCM (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  -- The home processor's own phase entry needs no protocol action: it
  -- reads and writes the master copy directly.
  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const homeRSEntry = `
  -- A phase request while stale read copies linger (their holders may not
  -- participate in this phase at all): invalidate them, then serve the
  -- private copy.
  message GET_LCM_REQ (id : ID; var info : INFO; src : NODE)
  var pending : int;
  begin
    pending := InvalidateSharers(info, src, id);
    while (pending > 0) do
      Suspend(L, Home_AwaitInvAcks{L});
      pending := pending - 1;
    end;
    ClearSharers(info);
    copies := copies + 1;
    RecordConsumer(info, src);
    holder := src;
    SendData(src, GET_LCM_RESP, id);
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_LCM{});
  end;

  -- A sharer enters the phase: its vote is its eviction.
  message BEGIN_LCM (id : ID; var info : INFO; src : NODE)
  begin
    RemoveSharer(info, src);
    if (NumSharers(info) = 0) then
      AccessChange(id, Blk_ReadWrite);
      SetState(info, Home_Idle{});
    else
      SetState(info, Home_RS{});
    endif;
  end;

  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const homeExclEntry = `
  -- Figure 11: the owner reconciles its copy on phase entry. Acknowledge,
  -- then wait for the (possibly queued-behind) BEGIN_LCM; a GET_RO_REQ or
  -- other message arriving meanwhile is queued by Home_Await_BEGIN_LCM.
  message PUT_ACCUM (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    Merge(info, src);
    Send(src, PUT_ACCUM_ACK, id);
    Suspend(L, Home_Await_BEGIN_LCM{L});
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_Idle{});
  end;

  -- A phase request while a (possibly non-participating) owner holds the
  -- block: recall it, then serve the private copy. If the owner is
  -- entering the phase itself, its PUT_ACCUM satisfies the recall (see
  -- Home_AwaitPutData).
  message GET_LCM_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(owner, PUT_DATA_REQ, id);
    Suspend(L, Home_AwaitPutData{L});
    copies := copies + 1;
    RecordConsumer(info, src);
    holder := src;
    SendData(src, GET_LCM_RESP, id);
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_LCM{});
  end;

  -- From the owner, a phase entry that overtook its own reconciliation:
  -- hold it for the PUT_ACCUM (whose handler suspends awaiting exactly
  -- this message). From anyone else it is stale: the sender was
  -- invalidated mid-entry and its acknowledgement already removed it
  -- from the sharer set.
  message BEGIN_LCM (id : ID; var info : INFO; src : NODE)
  begin
    if (src = owner) then
      Enqueue(MessageTag, id, info, src);
    else
      Drop();
    endif;
  end;

  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

// staleRecallEntry drops a recall that a phase-entry reconciliation
// already satisfied (it can chase the node into any post-phase state on a
// reordering network).
const staleRecallEntry = `
  -- LCM: a stale recall, already satisfied by a phase-entry
  -- reconciliation that crossed it in the network.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

// homeExclGiveBack lets the home accept a voluntary data return from an
// owner that answered a stale recall with real data (reordering can hand
// the stale recall to a re-acquired owner, which cannot tell it is stale).
const homeExclGiveBack = `
  message PUT_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_Idle{});
  end;
`

// awaitPutDataEntry handles the Figure-11 flush crossing a recall.
const awaitPutDataEntry = `
  -- The owner reconciled instead of answering the recall (it is entering
  -- an LCM phase): the reconciliation returns the data, so it satisfies
  -- the recall; acknowledge the flush and continue.
  message PUT_ACCUM (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    Merge(info, src);
    Send(src, PUT_ACCUM_ACK, id);
    Resume(C);
  end;
`

// lcmStates are the new state bodies. The GET_LCM_REQ handler in Home_LCM
// and the phase-completion code differ per variant (markers below).
const lcmStates = `
----------------------------------------------------------------------
-- LCM phase states
----------------------------------------------------------------------

state LCM.Cache_LCM_Idle()
begin
  message RD_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_LCM_REQ, id);
    Suspend(L, Cache_LCM_Wait{L});
    WakeUp(id);
  end;

  message WR_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_LCM_REQ, id);
    Suspend(L, Cache_LCM_Wait{L});
    WakeUp(id);
  end;

  -- Never fetched a copy: leaving the phase is purely local.
  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    SetState(info, Cache_Inv{});
  end;

  -- Idempotent re-entry (the application may announce a block twice).
  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  -- An invalidation addressed to the copy we gave up on phase entry.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
  end;

  -- A recall that crossed our (already acknowledged) reconciliation.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  -- MCC forwarding aimed at a copy we no longer hold: bounce to home.
  message FWD_LCM_REQ (id : ID; var info : INFO; src : NODE; req : NODE)
  begin
    Send(HomeNode(id), FWD_BOUNCE, id, req);
  end;

  -- A stale eager update from the previous phase.
  message LCM_UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Cache_LCM_Idle", Msg_To_Str(MessageTag));
  end;
end;

state LCM.Cache_LCM_Wait(C : CONT)
begin
  message GET_LCM_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    SetState(info, Cache_LCM_Dirty{});
    Resume(C);
  end;

  message FWD_LCM_REQ (id : ID; var info : INFO; src : NODE; req : NODE)
  begin
    Send(HomeNode(id), FWD_BOUNCE, id, req);
  end;

  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
  end;

  -- A stale recall, already satisfied by our phase-entry reconciliation.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message LCM_UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

state LCM.Cache_LCM_Dirty()
begin
  -- Reconcile the private copy; the home counts it back in.
  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_ACCUM, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Inv{});
  end;

  -- MCC: serve a peer's request from our private copy. LCM tolerates the
  -- inconsistency by construction.
  message FWD_LCM_REQ (id : ID; var info : INFO; src : NODE; req : NODE)
  begin
    SendData(req, GET_LCM_RESP, id);
  end;

  -- A stale recall, already satisfied by our phase-entry reconciliation.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message LCM_UPDATE (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Cache_LCM_Dirty", Msg_To_Str(MessageTag));
  end;
end;

-- An owner's phase-entry flush awaiting its acknowledgement (Figure 11's
-- cache side).
state LCM.Cache_AwaitAccumAck(C : CONT)
begin
  message PUT_ACCUM_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Resume(C);
  end;

  -- A recall that crossed our reconciliation: the flush already returned
  -- the data.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;

state LCM.Home_LCM()
begin
  message GET_LCM_REQ (id : ID; var info : INFO; src : NODE)
  begin
--GET_LCM_BODY--
  end;

  message FWD_BOUNCE (id : ID; var info : INFO; src : NODE; req : NODE)
  begin
    SendData(req, GET_LCM_RESP, id);
    holder := req;
  end;

  -- A copy comes back reconciled; the last one ends the phase here.
  message PUT_ACCUM (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadWrite);
    Merge(info, src);
    copies := copies - 1;
    if (copies = 0) then
--PHASE_END_BODY--
    endif;
  end;

  -- Next-phase activity while this phase drains: hold it.
  message GET_RO_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;

  message GET_RW_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;

  message UPGRADE_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;

  message BEGIN_LCM (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, EVICT_RO_ACK, id);
  end;

  message BEGIN_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message END_LCM_EV (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("invalid msg %s to Home_LCM", Msg_To_Str(MessageTag));
  end;
end;

-- Figure 11's home side: the entry flush was acknowledged; the BEGIN_LCM
-- chasing it completes the transition, and anything else waits.
state LCM.Home_Await_BEGIN_LCM(C : CONT)
begin
  message BEGIN_LCM (id : ID; var info : INFO; src : NODE)
  begin
    Resume(C);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;
`

// Per-variant bodies for Home_LCM.GET_LCM_REQ.
const getLCMPlain = `    copies := copies + 1;
    RecordConsumer(info, src);
    holder := src;
    SendData(src, GET_LCM_RESP, id);`

const getLCMMCC = `    copies := copies + 1;
    RecordConsumer(info, src);
    if (HasHolder(info) and not (holder = src)) then
      Send(holder, FWD_LCM_REQ, id, src);
    else
      SendData(src, GET_LCM_RESP, id);
      holder := src;
    endif;`

// Per-variant phase-completion bodies (inside "if copies = 0 then ...").
const phaseEndPlain = `      ClearConsumers(info);
      ClearHolder(info);
      SetState(info, Home_Idle{});`

const phaseEndUpdate = `      PushUpdates(info, id);
      ClearHolder(info);
      if (NumSharers(info) = 0) then
        SetState(info, Home_Idle{});
      else
        AccessChange(id, Blk_ReadOnly);
        SetState(info, Home_RS{});
      endif;`

// supportDecls declares the LCM support module.
const supportDecls = `
module LCMSupport begin
  -- Merge reconciles a PUT_ACCUM into the master copy.
  procedure Merge(var info : INFO; src : NODE);
  -- Consumer tracking for LCM-Update (reuses the sharer bitmask).
  procedure RecordConsumer(var info : INFO; n : NODE);
  procedure ClearConsumers(var info : INFO);
  -- PushUpdates sends LCM_UPDATE with the reconciled data to every
  -- consumer and records them as sharers.
  procedure PushUpdates(var info : INFO; id : ID);
  -- MCC copy-holder tracking.
  function HasHolder(info : INFO) : bool;
  procedure ClearHolder(var info : INFO);
end;
`

// Source assembles the Teapot source for a variant: Stache's text with the
// LCM states appended, renamed LCM, extended, and with the variant's
// Home_LCM bodies in place.
func Source(v Variant) string {
	get, end := getLCMPlain, phaseEndPlain
	if v == MCC || v == Both {
		get = getLCMMCC
	}
	if v == Update || v == Both {
		end = phaseEndUpdate
	}
	p := stache.Extend(v.String(), "LCM", stache.Source+lcmStates).
		Declare(lcmDecls).
		Insert("Cache_Inv", cacheInvEntry).
		Insert("Cache_RO", cacheROEntry).
		Insert("Cache_RW", cacheRWEntry).
		Insert("Home_Idle", homeIdleEntry).
		Insert("Home_RS", homeRSEntry).
		Insert("Home_Excl", homeExclEntry).
		Insert("Home_AwaitPutData", awaitPutDataEntry).
		Insert("Home_Excl", homeExclGiveBack).
		Replace("--GET_LCM_BODY--", get).
		Replace("--PHASE_END_BODY--", end)
	for _, st := range []string{"Cache_RO", "Cache_Inv_To_RO", "Cache_Inv_To_RW", "Cache_RO_To_RW"} {
		p.Insert(st, staleRecallEntry)
	}
	return supportDecls + p.Source()
}
