package cont_test

import (
	"strings"
	"testing"

	"teapot/internal/cont"
	"teapot/internal/ir"
	"teapot/internal/lower"
	"teapot/internal/parser"
	"teapot/internal/sema"
)

func compile(t *testing.T, src string, opts cont.Options) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("t.tea", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p := lower.Lower(sp)
	cont.Transform(p, opts)
	return p
}

// twoSuspends has a handler with a local live across the first suspend
// only, and a subroutine state with two entry sites (not constant).
const twoSuspends = `
protocol P begin
  var acc : int;
  state S();
  state W(C : CONT) transient;
  message GO;
  message STEP;
  message ACK;
end;
state P.S() begin
  message GO (id : ID; var info : INFO; src : NODE)
  var x : int; y : int;
  begin
    x := 7;
    y := 9;
    Send(src, STEP, id);
    Suspend(L, W{L});
    acc := acc + x;
    Send(src, STEP, id);
    Suspend(L2, W{L2});
    acc := acc + 1;
    SetState(info, S{});
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state P.W(C : CONT) begin
  message ACK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message STEP (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
  message GO (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`

func findFunc(p *ir.Program, name string) *ir.Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func TestFragmentSplitting(t *testing.T) {
	p := compile(t, twoSuspends, cont.Unoptimized)
	f := findFunc(p, "S.GO")
	if f == nil {
		t.Fatal("S.GO not found")
	}
	if len(f.Frags) != 3 {
		t.Fatalf("fragments = %d, want 3\n%s", len(f.Frags), f.Disassemble())
	}
	if len(p.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(p.Sites))
	}
}

func TestLivenessTrimsSaves(t *testing.T) {
	p := compile(t, twoSuspends, cont.Unoptimized)
	f := findFunc(p, "S.GO")
	// Fragment 1 uses: x (local 0), acc (protvar, not a register), src, id,
	// info. y is dead after the first suspend. Fragment 2 uses id, info,
	// src but not x or y.
	saved1 := f.Frags[1].Saved
	saved2 := f.Frags[2].Saved
	has := func(saved []ir.Reg, r ir.Reg) bool {
		for _, s := range saved {
			if s == r {
				return true
			}
		}
		return false
	}
	xReg := f.LocalReg(0)
	yReg := f.LocalReg(1)
	if !has(saved1, xReg) {
		t.Errorf("fragment 1 should save x (r%d); saved %v\n%s", xReg, saved1, f.Disassemble())
	}
	if has(saved1, yReg) {
		t.Errorf("fragment 1 should not save dead y (r%d); saved %v", yReg, saved1)
	}
	if has(saved2, xReg) || has(saved2, yReg) {
		t.Errorf("fragment 2 should save neither local; saved %v", saved2)
	}
	// Without liveness, all named registers are saved except the
	// rematerialized id/info parameters.
	p2 := compile(t, twoSuspends, cont.Options{Liveness: false})
	f2 := findFunc(p2, "S.GO")
	named := f2.NumStateParams + f2.NumParams + f2.NumLocals - 2
	if len(f2.Frags[1].Saved) != named {
		t.Errorf("no-liveness saved = %d, want %d (named minus remat)", len(f2.Frags[1].Saved), named)
	}
}

func TestNonConstantSites(t *testing.T) {
	p := compile(t, twoSuspends, cont.Optimized)
	for _, s := range p.Sites {
		if s.Constant {
			t.Errorf("site %d marked constant although W has two suspend sites", s.ID)
		}
	}
	// Resume in W.ACK stays dynamic.
	f := findFunc(p, "W.ACK")
	for _, in := range f.Code {
		if in.Op == ir.OpResume && in.Idx >= 0 {
			t.Errorf("resume rewritten to constant site %d", in.Idx)
		}
	}
}

// uniqueSite has exactly one suspend site targeting W, with nothing saved.
const uniqueSite = `
protocol P begin
  state S();
  state W(C : CONT) transient;
  message GO;
  message ACK;
end;
state P.S() begin
  message GO (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, GO, id);
    Suspend(L, W{L});
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state P.W(C : CONT) begin
  message ACK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`

func TestConstantContinuation(t *testing.T) {
	p := compile(t, uniqueSite, cont.Optimized)
	if len(p.Sites) != 1 {
		t.Fatalf("sites = %d", len(p.Sites))
	}
	s := p.Sites[0]
	if !s.Constant {
		t.Errorf("unique site not marked constant")
	}
	if !s.Static {
		t.Errorf("site with empty save set not marked static; saved=%v",
			s.Func.Frags[s.FragIdx].Saved)
	}
	f := findFunc(p, "W.ACK")
	rewritten := false
	for _, in := range f.Code {
		if in.Op == ir.OpResume && in.Idx == s.ID {
			rewritten = true
		}
	}
	if !rewritten {
		t.Errorf("resume not rewritten to constant site:\n%s", f.Disassemble())
	}
	if s.Heap {
		t.Errorf("static site marked heap-allocating")
	}
	// Unoptimized: no constant marking, no rewrite, and the record is
	// heap-allocated although it saves nothing.
	p2 := compile(t, uniqueSite, cont.Unoptimized)
	if p2.Sites[0].Constant || !p2.Sites[0].Heap {
		t.Errorf("unoptimized site: constant %v, heap %v", p2.Sites[0].Constant, p2.Sites[0].Heap)
	}
	if st := cont.Summarize(p); st.Sites != 1 || st.Static != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st := cont.Summarize(p2); st.Sites != 1 || st.Static != 0 || st.Dynamic != 1 {
		t.Errorf("unoptimized stats = %+v", st)
	}
}

// suspendInLoop exercises a Suspend inside a while loop: the loop counter
// must be saved across the suspension.
const suspendInLoop = `
protocol P begin
  var total : int;
  state S();
  state W(C : CONT) transient;
  message GO;
  message ACK;
end;
state P.S() begin
  message GO (id : ID; var info : INFO; src : NODE)
  var i : int;
  begin
    i := 0;
    while (i < 3) do
      Send(src, GO, id);
      Suspend(L, W{L});
      i := i + 1;
    end;
    total := i;
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state P.W(C : CONT) begin
  message ACK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`

func TestSuspendInLoopSavesCounter(t *testing.T) {
	p := compile(t, suspendInLoop, cont.Optimized)
	f := findFunc(p, "S.GO")
	if len(f.Frags) != 2 {
		t.Fatalf("frags = %d, want 2", len(f.Frags))
	}
	iReg := f.LocalReg(0)
	found := false
	for _, r := range f.Frags[1].Saved {
		if r == iReg {
			found = true
		}
	}
	if !found {
		t.Errorf("loop counter not saved across suspend: saved=%v\n%s", f.Frags[1].Saved, f.Disassemble())
	}
	if p.Sites[0].Static {
		t.Errorf("site with live counter should not be static")
	}
	if !p.Sites[0].Constant || p.Sites[0].Heap {
		t.Errorf("unique site should still be constant, its record not heap-allocated")
	}
}

func TestDisassembleStable(t *testing.T) {
	p := compile(t, uniqueSite, cont.Optimized)
	f := findFunc(p, "S.GO")
	d := f.Disassemble()
	for _, want := range []string{"func S.GO", "cont(frag", "suspend", "frag 1"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}
