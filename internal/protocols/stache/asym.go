package stache

// Deliberately asymmetric Stache: the invalidation handler in Cache_RO
// branches on the ORDER of two node ids (src < MyNode()). Both arms are
// behaviorally identical, so the protocol still verifies — but ordering
// node identities is exactly what the static symmetry prover must refute
// (internal/analysis.ProveSymmetry emits an OpBin '<' witness), and the
// model checker must therefore refuse to enable symmetry reduction for
// it. Shipped as the negative fixture for the certificate gate: a checker
// that reduced this protocol anyway would be trusting a heuristic, not a
// proof.
const asymTarget = `  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PUT_NO_DATA_RESP, id);
    SetState(info, Cache_Inv{});
    AccessChange(id, Blk_Invalidate);
  end;

  -- Voluntary eviction of a clean read-only copy`

const asymReplacement = `  message PUT_NO_DATA_REQ (id : ID; var info : INFO; src : NODE)
  begin
    -- Asymmetric on purpose: node ids are ordered. The arms are
    -- identical, so behavior is unchanged — only the symmetry proof
    -- breaks.
    if (src < MyNode()) then
      Send(HomeNode(id), PUT_NO_DATA_RESP, id);
      SetState(info, Cache_Inv{});
      AccessChange(id, Blk_Invalidate);
    else
      Send(HomeNode(id), PUT_NO_DATA_RESP, id);
      SetState(info, Cache_Inv{});
      AccessChange(id, Blk_Invalidate);
    endif;
  end;

  -- Voluntary eviction of a clean read-only copy`

// AsymSource is the asymmetric Stache protocol text.
var AsymSource = Extend("stache-asym", "Stache", Source).Replace(asymTarget, asymReplacement).Source()
