package stache

import (
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
var CASSource = casModule + casResultModule + Extend("stache-cas", "Stache", Source).
	Declare(casDecls).
	Insert("Home_Idle", casHomeIdle).
	Insert("Home_RS", casHomeRS).
	Insert("Home_Excl", casHomeExcl).
	Insert("Cache_Inv", casIssue).
	Insert("Cache_RO", casIssue).
	Insert("Cache_RW", casIssue).
	Source() + casAwaitState

// CASSupport is Stache's support module plus the word storage the
// compare-and-swap operates on and per-node result recording. Neither CAS
// routine is vouched equivariant: both key state by concrete node and block.
type CASSupport struct {
	*Support
	Words   map[int]int64 // block -> current word value at its home
	Results map[[2]int]bool
}

// NewCASSupport binds Routines and the two CAS routines to p.
func NewCASSupport(p *runtime.Protocol) (*CASSupport, error) {
	s := &CASSupport{Words: make(map[int]int64), Results: make(map[[2]int]bool)}
	sup, err := Routines.With(Table{
		"CASApply": {Body: func(c Call) vm.Value {
			if s.Words[c.Block.ID] != c.Arg(1) {
				return vm.BoolVal(false)
			}
			s.Words[c.Block.ID] = c.Arg(2)
			return vm.BoolVal(true)
		}},
		"SetCNSResult": {Body: func(c Call) vm.Value {
			s.Results[[2]int{c.Engine.Node, c.Block.ID}] = c.Args[1].Bool()
			return vm.Value{}
		}},
	}).Bind(p)
	if err != nil {
		return nil, err
	}
	s.Support = sup
	return s, nil
}
