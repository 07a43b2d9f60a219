package stache

import (
	"strings"

	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// Compare&Swap extension (§3, Figure 6). The paper uses it to show how
// continuations simplify adding a primitive that must execute at the home
// node once the block becomes Idle: "The state machine-based
// implementation needs to test for this condition at 14 different places";
// with Teapot each home state forces the transition with a subroutine-like
// mechanism, and a CNS_REQ arriving in any other state is queued
// automatically.

// casDecls extends the protocol declaration block.
const casDecls = `
  state Cache_AwaitCNS(C : CONT) transient;
  message CAS_EV;
  message CNS_REQ;
  message CNS_RESP;
`

// casModule declares the support routine executing the swap on the home's
// word.
const casModule = `
module CASSupport begin
  function CASApply(var info : INFO; old : int; new : int) : bool;
end;
`

// Home-side handlers (Figure 6's shape: ReadShared and Exclusive force the
// transition to Idle before performing the operation).
const casHomeIdle = `
  message CNS_REQ (id : ID; var info : INFO; src : NODE; old : int; new : int)
  var ok : bool;
  begin
    ok := CASApply(info, old, new);
    Send(src, CNS_RESP, id, ok);
  end;
`

const casHomeRS = `
  -- Figure 6: invalidate outstanding copies, complete the transition to
  -- Idle, then perform the compare-and-swap.
  message CNS_REQ (id : ID; var info : INFO; src : NODE; old : int; new : int)
  var pending : int; ok : bool;
  begin
    pending := InvalidateSharers(info, MyNode(), id);
    while (pending > 0) do
      Suspend(L, Home_AwaitInvAcks{L});
      pending := pending - 1;
    end;
    ClearSharers(info);
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_Idle{});
    ok := CASApply(info, old, new);
    Send(src, CNS_RESP, id, ok);
  end;
`

const casHomeExcl = `
  message CNS_REQ (id : ID; var info : INFO; src : NODE; old : int; new : int)
  var ok : bool;
  begin
    Send(owner, PUT_DATA_REQ, id);
    Suspend(L, Home_AwaitPutData{L});
    AccessChange(id, Blk_ReadWrite);
    SetState(info, Home_Idle{});
    ok := CASApply(info, old, new);
    Send(src, CNS_RESP, id, ok);
  end;
`

// Cache-side: issue the operation and wait for the outcome.
const casIssue = `
  -- By the time the outcome arrives, the home has forced the block Idle,
  -- which invalidated any copy we held: resume into Cache_Inv.
  message CAS_EV (id : ID; var info : INFO; src : NODE; old : int; new : int)
  begin
    Send(HomeNode(id), CNS_REQ, id, old, new);
    Suspend(L, Cache_AwaitCNS{L});
    SetState(info, Cache_Inv{});
    WakeUp(id);
  end;
`

const casAwaitState = `
state Stache.Cache_AwaitCNS(C : CONT)
begin
  message CNS_RESP (id : ID; var info : INFO; src : NODE; ok : bool)
  begin
    SetCNSResult(info, ok);
    Resume(C);
  end;

  -- The home may reclaim our copy while the operation is pending.
  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
  end;

  message PUT_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    SendData(HomeNode(id), PUT_DATA_RESP, id);
    AccessChange(id, Blk_Invalidate);
  end;

  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Enqueue(MessageTag, id, info, src);
  end;
end;
`

const casResultModule = `
module CASResult begin
  procedure SetCNSResult(var info : INFO; ok : bool);
end;
`

// CASSource is Stache extended with the Compare&Swap primitive. Note the
// paper's count: the hand-written version needs pending-operation tests at
// 14 places; here the extension is three home handlers, one issue handler
// per stable cache state, and one subroutine state.
var CASSource = func() string {
	src := Source
	src = strings.Replace(src, "  message EVICT_RO_ACK;\nend;", "  message EVICT_RO_ACK;\n"+casDecls+"end;", 1)
	insert := func(stateMarker, handlers string) {
		at := strings.Index(src, stateMarker)
		if at < 0 {
			panic("cas: marker not found: " + stateMarker)
		}
		j := strings.Index(src[at:], "begin")
		pos := at + j + len("begin")
		src = src[:pos] + "\n" + handlers + src[pos:]
	}
	insert("state Stache.Home_Idle(", casHomeIdle)
	insert("state Stache.Home_RS(", casHomeRS)
	insert("state Stache.Home_Excl(", casHomeExcl)
	insert("state Stache.Cache_Inv(", casIssue)
	insert("state Stache.Cache_RO(", casIssue)
	insert("state Stache.Cache_RW(", casIssue)
	return casModule + casResultModule + src + casAwaitState
}()

// CASSupport wraps the Stache support module with the word storage the
// compare-and-swap operates on and per-node result recording.
type CASSupport struct {
	*Support
	Words   map[int]int64 // block -> current word value at its home
	Results map[[2]int]bool
}

// NewCASSupport builds the extended support module.
func NewCASSupport(p *runtime.Protocol) (*CASSupport, error) {
	s, err := NewSupport(p)
	if err != nil {
		return nil, err
	}
	return &CASSupport{
		Support: s,
		Words:   make(map[int]int64),
		Results: make(map[[2]int]bool),
	}, nil
}

// Call implements runtime.Support.
func (s *CASSupport) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	switch name {
	case "CASApply":
		old, new := args[1].Int, args[2].Int
		blk := ctx.Block.ID
		if s.Words[blk] == old {
			s.Words[blk] = new
			return vm.BoolVal(true), nil
		}
		return vm.BoolVal(false), nil
	case "SetCNSResult":
		s.Results[[2]int{ctx.Engine.Node, ctx.Block.ID}] = args[1].Bool()
		return vm.Value{}, nil
	}
	return s.Support.Call(ctx, name, args)
}
