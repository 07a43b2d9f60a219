package stache

import "teapot/internal/vm"

// Fault-tolerant Stache: the base protocol extended to survive a lossy,
// duplicating network (internal/netmodel). Three ingredients:
//
//  1. a TIMEOUT pseudo-message: the runtime arms a per-block timer whenever
//     the block sits in a state that declares an explicit TIMEOUT handler
//     (every transient wait state below), and each handler retransmits the
//     request whose answer the state is waiting for;
//  2. idempotent request handling on the home side: a re-sent GET_RO_REQ /
//     GET_RW_REQ / UPGRADE_REQ from a node the home already granted to is
//     answered again instead of deadlocking or double-recalling;
//  3. stale-message tolerance: duplicates of grants and acknowledgements
//     from exchanges that already completed are explicitly dropped in every
//     state they can reach, so they can never substitute for a live answer
//     or trip a DEFAULT Error.
//
// Scope: the variant is verified at 2 nodes (the scale the paper's §6
// verification runs use) for any drop budget the sweeps exercise (up to
// drop=3), for reorder=1, and for at most ONE duplicate (dup=1, drop=1,dup=1,
// drop=2,dup=1 all verify); and at 3 nodes for drop budgets up to 3 and for
// reorder=1. The 3-node drop envelope is owed to two acknowledgement guards
// the schedule fuzzer forced: ack collection is gated on the 'awaiting'
// bitmask (see ftAwaitInvAcksAck) and writebacks on the recalled owner (see
// ftAwaitPutDataResp) — without them a bystander node's volunteered answer
// substitutes for a lost one and the checker finds an SWMR violation at
// three nodes within 2112 states. Duplicate budgets do NOT verify at 3
// nodes, and 2-node combos beyond the list above (e.g.
// drop=1,dup=1,reorder=1) also fail: a duplicated grant or writeback from
// the SAME node can straddle two recall epochs, and without per-message
// sequence numbers the receiver cannot tell the copies apart — the
// documented envelope of any epoch-less protocol. Block data movement is
// abstract (SendData/RecvData move permissions, not bytes), which lets
// Cache_Inv re-answer a writeback recall after its response was lost; a real
// implementation would retain the dirty copy until the writeback is
// acknowledged, and would tag messages with epochs (sequence numbers) to
// lift the duplicate limits.

// ftDecls extends the protocol declaration block.
const ftDecls = `
  -- Injected by the runtime (a timer in simulation, a nondeterministic
  -- choice in the checker) while a block waits in a state declaring an
  -- explicit handler for it; never crosses the network.
  message TIMEOUT;
  -- Write-miss wait poisoned by a recall we answered without the block
  -- (the grant was lost): the next grant to arrive may predate that
  -- recall and must be discarded, not installed.
  state Cache_Inv_To_RW_P(C : CONT) transient;
`

// ftModule declares the retransmission support routines.
const ftModule = `
module StacheFTSupport begin
  -- Re-sends PUT_NO_DATA_REQ to exactly the nodes still owing an
  -- acknowledgement (the 'awaiting' bitmask InvalidateSharers recorded);
  -- every cache state answers the request idempotently, so a node whose
  -- first invalidation or ack was lost re-answers from wherever it is.
  procedure ResendInvalidates(var info : INFO; id : ID);
  -- True iff 'src' still owes an invalidation ack; clears its bit. Gating
  -- Home_AwaitInvAcks on this is what makes ack collection sound beyond
  -- two nodes: a volunteered answer from a node that owes nothing (or a
  -- duplicate of an ack already counted) must not substitute for the one
  -- still outstanding.
  function TakeAwaiting(var info : INFO; src : NODE) : bool;
end;
`

// Cache side ------------------------------------------------------------

const ftCacheInv = `
  -- FT: a re-sent writeback recall after our PUT_DATA_RESP was lost. Block
  -- data is not modeled, so the re-answer is a permission-level no-op; a
  -- real implementation would retain the dirty copy until acknowledged.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
  end;

  -- FT: stale duplicates from exchanges that already completed.
  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const ftCacheRO = `
  -- FT: stale duplicates; in Cache_RO every grant/ack is from a finished
  -- exchange (a fresh RW grant only ever arrives in a _To_RW state).
  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const ftCacheRW = `
  -- FT: a duplicated invalidation from a previous read-shared epoch; the
  -- original was answered from the state it found us in, and the home
  -- cannot be collecting acks while we hold the only writable copy.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

// ftStaleInTransient drops messages that can only be stale duplicates while
// a cache waits for a specific answer; anything else still defers.
const ftStaleAcks = `
  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const ftCacheInvToRO = `
  -- FT: the request or its grant was lost; ask again.
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RO_REQ, id);
  end;

  -- FT: the home re-recalls our previous (written-back) tenure because
  -- the writeback response was lost; re-answer it. Deferring instead
  -- deadlocks: the copy pins the home's timer while the home's suspension
  -- pins our read request.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
` + ftStaleAcks

const ftCacheInvToROP = `
  -- FT: the grant this state was poisoned against was lost in the network:
  -- there is nothing left to discard, so restart the read miss.
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RO_REQ, id);
    SetState(info, Cache_Inv_To_RO{C});
  end;

  -- FT: the home re-recalled because the PUT_DATA_RESP that put us in this
  -- poisoned state was lost. Re-answer instead of deferring: the home is
  -- suspended awaiting the response and a deferred recall would hold both
  -- sides forever.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
  end;
` + ftStaleAcks

const ftCacheInvToRW = `
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
  end;

  -- FT: the home made us owner but the grant was lost, and it is now
  -- recalling a block we never received. Answer so the home can move on,
  -- and poison the pending fill (mirroring the base Cache_Inv_To_RO_P
  -- pattern): a grant still in flight predates the recall.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
    SetState(info, Cache_Inv_To_RW_P{C});
  end;

  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
` + ftStaleAcks

// ftCacheInvToRWP is the poisoned write-miss wait, appended as a whole new
// state (the base protocol has no RW analog of Cache_Inv_To_RO_P because
// without message loss a recall can never reach Cache_Inv_To_RW).
const ftCacheInvToRWP = `
state Stache.Cache_Inv_To_RW_P(C : CONT)
begin
  -- Discard the (possibly stale) grant and ask again: the home records
  -- us as owner, so the re-request is answered by the idempotent
  -- re-grant branch in Home_Excl.
  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
    SetState(info, Cache_Inv_To_RW{C});
  end;

  -- Both the poisoning recall and the grant were lost; restart the miss.
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
    SetState(info, Cache_Inv_To_RW{C});
  end;

  -- Duplicated recall; re-answer it.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
  end;

  -- Stale invalidation aimed at an earlier tenure; answer it.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
  end;

  -- An upgrade answer that the poisoning recall overtook: like a full
  -- grant, bounce it and ask again (message-driven, because on a pure
  -- reordering network there are no timeouts to fall back on).
  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), GET_RW_REQ, id);
    SetState(info, Cache_Inv_To_RW{C});
  end;

  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;
`

const ftCacheROToRW = `
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), UPGRADE_REQ, id);
  end;

  -- FT: the home made us owner but the UPGRADE_ACK was lost — or, on a
  -- reordering network, this recall overtook it. Surrender the read copy
  -- and poison the pending fill: a grant or ack still in flight predates
  -- the recall and must be bounced, not installed.
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Inv_To_RW_P{C});
  end;

  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message EVICT_RO_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

// ftEvictRetry re-issues the eviction handshake; the home acknowledges
// EVICT_RO_REQ idempotently in every state.
const ftEvictRetry = `
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), EVICT_RO_REQ, id);
  end;

  message GET_RO_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message GET_RW_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message UPGRADE_ACK (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

// ftPutDataReanswer answers a writeback re-recall in Cache_P_Evicting: the
// home resent PUT_DATA_REQ because the response that poisoned this path was
// lost, and it is suspended until one arrives — deferring the recall while
// our own EVICT_RO_REQ waits for that same home would hold both sides.
const ftPutDataReanswer = `
  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
  end;
`

// Home side -------------------------------------------------------------

// ftHomeStale drops duplicated responses arriving after the wait that
// wanted them already resumed.
const ftHomeStale = `
  message PUT_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;

  message PUT_NO_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
`

const ftHomeAwaitPutData = `
  -- FT: the recall or the writeback response was lost; recall again (the
  -- old owner re-answers from Cache_Inv if it already gave the block up).
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    Send(owner, PUT_DATA_REQ, id);
  end;
`

// baseAwaitPutDataResp is the writeback handler ftAwaitPutDataResp
// replaces (must match source.go verbatim). The base resumes on any
// PUT_DATA_RESP, which is sound while only one recall can be in flight;
// with duplication and a third node, a copied writeback from the previous
// owner's epoch can arrive while the home is recalling from the *next*
// owner and substitute for that node's surrender — the home proceeds
// while the recalled node still holds read-write (two writers).
const baseAwaitPutDataResp = `  message PUT_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RecvData(id, Blk_ReadOnly);
    Resume(C);
  end;
`

// ftAwaitPutDataResp accepts a writeback only from the node being
// recalled: every PUT_DATA_REQ is addressed to 'owner', and owner is not
// reassigned until the wait resumes, so the expected responder is always
// the current owner. Anything else is a stale duplicate.
const ftAwaitPutDataResp = `  message PUT_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    if (src = owner) then
      RecvData(id, Blk_ReadOnly);
      Resume(C);
    else
      -- FT: a duplicated writeback from a former owner's epoch.
      Drop();
    endif;
  end;
`

const ftHomeAwaitInvAcks = `
  -- FT: an invalidation or its acknowledgement was lost; re-invalidate
  -- the nodes still owing an ack (see StacheFTSupport.ResendInvalidates).
  message TIMEOUT (id : ID; var info : INFO; src : NODE)
  begin
    ResendInvalidates(info, id);
  end;
`

// baseAwaitInvAcksAck is the ack handler ftAwaitInvAcksAck replaces (must
// match source.go verbatim). The base counts acknowledgements blindly —
// one Resume per message — which is sound on a perfect network where only
// solicited acks exist, but unsound once TIMEOUT retransmission makes
// caches answer invalidations they were never sent: at three or more
// nodes a bystander's volunteered PUT_NO_DATA_RESP can substitute for the
// lost ack of a node still holding a read-only copy, and the home
// upgrades to read-write alongside it (the fuzzer found exactly this, and
// the checker confirmed it with an 8-step counterexample).
const baseAwaitInvAcksAck = `  message PUT_NO_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    RemoveSharer(info, src);
    Resume(C);
  end;
`

// ftAwaitInvAcksAck counts an ack only from a node recorded as owing one.
const ftAwaitInvAcksAck = `  message PUT_NO_DATA_RESP (id : ID; var info : INFO; src : NODE)
  begin
    if (TakeAwaiting(info, src)) then
      RemoveSharer(info, src);
      Resume(C);
    else
      -- FT: a duplicate of an ack this wait already counted, or a
      -- volunteered answer from a node that owes nothing.
      Drop();
    endif;
  end;
`

// ftHomeRSGetRO replaces Home_RS's GET_RO_REQ handler: with the
// acknowledged eviction handshake a node re-requests only after its
// eviction was confirmed, so a GET_RO_REQ from a recorded sharer means the
// grant was lost — re-grant idempotently instead of queueing for an
// eviction notice that will never come.
const ftHomeRSGetRO = `  message GET_RO_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(src, GET_RO_RESP, id);
    AddSharer(info, src);
  end;
`

// baseHomeRSGetRO is the handler ftHomeRSGetRO replaces (must match
// source.go verbatim).
const baseHomeRSGetRO = `  message GET_RO_REQ (id : ID; var info : INFO; src : NODE)
  begin
    if (IsSharer(info, src)) then
      -- The request passed the node's eviction notice in the network
      -- (the paper's reordering scenario): hold it until the notice
      -- arrives and this state transitions.
      Enqueue(MessageTag, id, info, src);
    else
      SendData(src, GET_RO_RESP, id);
      AddSharer(info, src);
    endif;
  end;
`

// ftHomeExclRegrant guards Home_Excl's GET_RW_REQ and UPGRADE_REQ: a
// request from the current owner is a retransmission after a lost grant —
// answer it again rather than recalling the block from its own requester.
const ftHomeExclGetRW = `  message GET_RW_REQ (id : ID; var info : INFO; src : NODE)
  begin
    if (src = owner) then
      -- FT: the grant was lost; re-grant to the owner-to-be.
      SendData(src, GET_RW_RESP, id);
    else
      Send(owner, PUT_DATA_REQ, id);
      Suspend(L, Home_AwaitPutData{L});
      SendData(src, GET_RW_RESP, id);
      owner := src;
      AccessChange(id, Blk_Invalidate);
      SetState(info, Home_Excl{});
    endif;
  end;
`

const baseHomeExclGetRW = `  message GET_RW_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(owner, PUT_DATA_REQ, id);
    Suspend(L, Home_AwaitPutData{L});
    SendData(src, GET_RW_RESP, id);
    owner := src;
    AccessChange(id, Blk_Invalidate);
    SetState(info, Home_Excl{});
  end;

  message UPGRADE_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(owner, PUT_DATA_REQ, id);
    Suspend(L, Home_AwaitPutData{L});
    SendData(src, GET_RW_RESP, id);
    owner := src;
    AccessChange(id, Blk_Invalidate);
    SetState(info, Home_Excl{});
  end;
`

const ftHomeExclUpgrade = `
  message UPGRADE_REQ (id : ID; var info : INFO; src : NODE)
  begin
    if (src = owner) then
      -- FT: the upgrade answer was lost; the waiter accepts a full grant.
      SendData(src, GET_RW_RESP, id);
    else
      Send(owner, PUT_DATA_REQ, id);
      Suspend(L, Home_AwaitPutData{L});
      SendData(src, GET_RW_RESP, id);
      owner := src;
      AccessChange(id, Blk_Invalidate);
      SetState(info, Home_Excl{});
    endif;
  end;
`

// FTSource is the fault-tolerant Stache protocol text.
var FTSource = ftModule + Extend("stache-ft", "Stache", Source).
	Declare(ftDecls).
	Replace(sharersDecl, sharersDecl+"\n"+
		"  var awaiting : int;   -- FT: nodes owing an invalidation ack, managed by the support module").
	Replace(baseHomeRSGetRO, ftHomeRSGetRO).
	Replace(baseHomeExclGetRW, ftHomeExclGetRW+ftHomeExclUpgrade).
	Replace(baseAwaitInvAcksAck, ftAwaitInvAcksAck).
	Replace(baseAwaitPutDataResp, ftAwaitPutDataResp).
	Insert("Cache_Inv", ftCacheInv).
	Insert("Cache_RO", ftCacheRO).
	Insert("Cache_RW", ftCacheRW).
	Insert("Cache_Inv_To_RO", ftCacheInvToRO).
	Insert("Cache_Inv_To_RO_P", ftCacheInvToROP).
	Insert("Cache_Inv_To_RW", ftCacheInvToRW).
	Insert("Cache_RO_To_RW", ftCacheROToRW).
	Insert("Cache_RO_Evicting", ftEvictRetry).
	Insert("Cache_Ev_To_RO", ftEvictRetry).
	Insert("Cache_Ev_To_RW", ftEvictRetry).
	Insert("Cache_P_Evicting", ftEvictRetry+ftPutDataReanswer).
	Insert("Home_Idle", ftHomeStale).
	Insert("Home_RS", ftHomeStale).
	Insert("Home_Excl", ftHomeStale).
	Insert("Home_AwaitPutData", ftHomeAwaitPutData).
	Insert("Home_AwaitInvAcks", ftHomeAwaitInvAcks).
	Source() + ftCacheInvToRWP

// sharersDecl is the declaration the awaiting set is declared after.
const sharersDecl = "  var sharers : int;    -- sharer bitmask, managed by the support module"

// ftBuggyTarget is the recall-during-upgrade handler body whose
// invalidation FTBuggySource removes (must match ftCacheROToRW verbatim).
const ftBuggyTarget = `    SendData(HomeNode(id), PUT_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Inv_To_RW_P{C});`

// FTBuggySource is stache-ft with the invalidation dropped from the
// recall-during-upgrade handler: the cache surrenders ownership (answers
// PUT_DATA_RESP and poisons its pending fill) but keeps its read
// mapping. The omission is silent on a perfect network — the handler only
// runs after a recall overtakes or replaces a lost UPGRADE_ACK — and then
// lets this node read stale data while the recall's beneficiary writes: a
// single-writer-multiple-reader violation only a faulted schedule can
// surface, shipped as the fuzzer's seeded-bug fixture.
var FTBuggySource = Extend("stache-ft-buggy", "Stache", FTSource).Replace(ftBuggyTarget,
	`    SendData(HomeNode(id), PUT_DATA_RESP, id);
    SetState(info, Cache_Inv_To_RW_P{C});`).Source()

// awaiting is the variable the fault-tolerant routines keep the nodes owing
// an invalidation acknowledgement in.
var awaiting = []string{"awaiting"}

// FTRoutines is StacheFTSupport: Stache's routines with precise
// retransmission bookkeeping. The per-block 'awaiting' set records exactly
// which nodes were sent an invalidation and have not been counted yet, so
// ResendInvalidates re-targets only them and TakeAwaiting keeps a
// volunteered or duplicated ack from substituting for an outstanding one
// (see ftModule).
var FTRoutines = Routines.With(Table{
	// Records the set it invalidates — every sharer but the excluded
	// requester: the nodes whose acks the wait loop may count.
	"InvalidateSharers": {Vars: []string{"sharers", "awaiting"}, Msg: "PUT_NO_DATA_REQ", Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		set := c.Mask(0) &^ c.Bit(1)
		c.SetMask(1, set)
		return vm.IntVal(c.Multicast(set, c.Arg(2), false))
	}},
	"TakeAwaiting": {Vars: awaiting, Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		owed := c.Mask(0)&c.Bit(1) != 0
		c.SetMask(0, c.Mask(0)&^c.Bit(1))
		return vm.BoolVal(owed)
	}},
	"ResendInvalidates": {Vars: awaiting, Msg: "PUT_NO_DATA_REQ", Equivariant: true, Local: true, Body: func(c Call) vm.Value {
		c.Multicast(c.Mask(0), c.Arg(1), false)
		return vm.Value{}
	}},
})
