package liveness

import (
	"math/rand"
	"testing"
	"testing/quick"

	"teapot/internal/ir"
	"teapot/internal/token"
)

func TestSetOperations(t *testing.T) {
	s := NewSet(130)
	if s.Has(0) || s.Has(129) {
		t.Error("new set not empty")
	}
	if !s.Add(129) || !s.Add(0) || !s.Add(64) {
		t.Error("Add should report change")
	}
	if s.Add(64) {
		t.Error("re-Add should report no change")
	}
	if !s.Has(0) || !s.Has(64) || !s.Has(129) {
		t.Error("membership broken")
	}
	if got := s.Count(); got != 3 {
		t.Errorf("Count = %d", got)
	}
	members := s.Members()
	if len(members) != 3 || members[0] != 0 || members[1] != 64 || members[2] != 129 {
		t.Errorf("Members = %v", members)
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Remove broken")
	}
	// NoReg is ignored.
	if s.Add(ir.NoReg) || s.Has(ir.NoReg) {
		t.Error("NoReg should be ignored")
	}
	c := s.Clone()
	c.Add(5)
	if s.Has(5) {
		t.Error("Clone aliases the original")
	}
	o := NewSet(130)
	o.Add(7)
	if !s.Union(o) || !s.Has(7) {
		t.Error("Union broken")
	}
}

// TestSetMembersProperty: Members returns exactly the added registers in
// ascending order.
func TestSetMembersProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(256)
		want := map[ir.Reg]bool{}
		for i := 0; i < int(n); i++ {
			r := ir.Reg(rng.Intn(256))
			s.Add(r)
			want[r] = true
		}
		ms := s.Members()
		if len(ms) != len(want) {
			return false
		}
		for i, r := range ms {
			if !want[r] {
				return false
			}
			if i > 0 && ms[i-1] >= r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// straightLine builds r2 := r0 + r1; return. r0 and r1 are live-in.
func straightLine() *ir.Func {
	return &ir.Func{
		Name: "t", NumRegs: 3,
		Code: []ir.Instr{
			{Op: ir.OpBin, Dst: 2, A: 0, B: 1, Tok: token.PLUS},
			{Op: ir.OpReturn},
		},
		Frags: []ir.Fragment{{Start: 0, Site: -1}},
	}
}

func TestStraightLineLiveness(t *testing.T) {
	f := straightLine()
	res := Analyze(f)
	in := res.LiveAt(0)
	if !in.Has(0) || !in.Has(1) || in.Has(2) {
		t.Errorf("live-in at 0 = %v", in.Members())
	}
	if res.LiveAt(1).Count() != 0 {
		t.Errorf("live-in at return = %v", res.LiveAt(1).Members())
	}
}

func TestBranchLiveness(t *testing.T) {
	// if r0 goto L1 else L2; L1: r3 := r1; return; L2: r3 := r2; return.
	f := &ir.Func{
		Name: "b", NumRegs: 4,
		Code: []ir.Instr{
			{Op: ir.OpBranch, A: 0, Idx: 1, Idx2: 3},
			{Op: ir.OpMove, Dst: 3, A: 1},
			{Op: ir.OpReturn},
			{Op: ir.OpMove, Dst: 3, A: 2},
			{Op: ir.OpReturn},
		},
		Frags: []ir.Fragment{{Start: 0, Site: -1}},
	}
	res := Analyze(f)
	in := res.LiveAt(0)
	for _, r := range []ir.Reg{0, 1, 2} {
		if !in.Has(r) {
			t.Errorf("r%d should be live at entry", r)
		}
	}
	if in.Has(3) {
		t.Error("r3 should be dead at entry")
	}
	// On the taken path only r1 is live.
	if got := res.LiveAt(1); !got.Has(1) || got.Has(2) {
		t.Errorf("live at 1 = %v", got.Members())
	}
}

func TestLoopLiveness(t *testing.T) {
	// L0: branch r0 ? 1 : 4; r1 := r1 + r2; jump 0; return
	f := &ir.Func{
		Name: "l", NumRegs: 3,
		Code: []ir.Instr{
			{Op: ir.OpBranch, A: 0, Idx: 1, Idx2: 3},
			{Op: ir.OpBin, Dst: 1, A: 1, B: 2, Tok: token.PLUS},
			{Op: ir.OpJump, Idx: 0},
			{Op: ir.OpReturn},
		},
		Frags: []ir.Fragment{{Start: 0, Site: -1}},
	}
	res := Analyze(f)
	in := res.LiveAt(0)
	// r1 and r2 live around the loop; r0 live for the condition.
	for _, r := range []ir.Reg{0, 1, 2} {
		if !in.Has(r) {
			t.Errorf("r%d should be live at loop head", r)
		}
	}
}

func TestSuspendFlowsIntoNextFragment(t *testing.T) {
	// r1 := cont; r2 := state{r1}; suspend r2; [frag1] r3 := r0; return.
	f := &ir.Func{
		Name: "s", NumRegs: 4,
		Code: []ir.Instr{
			{Op: ir.OpMakeCont, Dst: 1, Idx: 1},
			{Op: ir.OpMakeState, Dst: 2, Idx: 0, Args: []ir.Reg{1}},
			{Op: ir.OpSuspend, A: 2, Dst: ir.NoReg},
			{Op: ir.OpMove, Dst: 3, A: 0},
			{Op: ir.OpReturn},
		},
		Frags: []ir.Fragment{{Start: 0, Site: -1}, {Start: 3, Site: 0}},
	}
	res := Analyze(f)
	// r0 is used after the suspend, so it must be live at the entry (the
	// continuation pass would save it).
	if !res.LiveAt(0).Has(0) {
		t.Errorf("r0 should be live across the suspend: %v", res.LiveAt(0).Members())
	}
	if !res.LiveAt(3).Has(0) {
		t.Errorf("r0 should be live into fragment 1")
	}
}

// Property: live-in at any instruction contains every register the
// instruction itself uses.
func TestLivenessContainsUsesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		fn := &ir.Func{Name: "p", NumRegs: 8, Frags: []ir.Fragment{{Start: 0, Site: -1}}}
		for i := 0; i < n; i++ {
			fn.Code = append(fn.Code, ir.Instr{
				Op: ir.OpBin, Dst: ir.Reg(rng.Intn(8)),
				A: ir.Reg(rng.Intn(8)), B: ir.Reg(rng.Intn(8)), Tok: token.PLUS,
			})
		}
		fn.Code = append(fn.Code, ir.Instr{Op: ir.OpReturn})
		res := Analyze(fn)
		for i := 0; i < n; i++ {
			in := res.LiveAt(i)
			var uses []ir.Reg
			uses = fn.Code[i].Uses(uses)
			for _, u := range uses {
				if !in.Has(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLivenessAllocs: Analyze allocates at most twice per function, the
// Result and the array its live-in sets are views of, however long the
// function is and however many fixpoint rounds its loops take.
func TestLivenessAllocs(t *testing.T) {
	const regs = 150
	for _, n := range []int{1, 10, 100, 1000} {
		fn := &ir.Func{Name: "a", NumRegs: regs, Frags: []ir.Fragment{{Start: 0, Site: -1}}}
		for i := 0; i < n; i++ {
			r := ir.Reg(i % regs)
			switch i % 5 {
			case 0:
				fn.Code = append(fn.Code, ir.Instr{Op: ir.OpBin, Dst: r, A: (r + 1) % regs, B: (r + 7) % regs, Tok: token.PLUS})
			case 1:
				fn.Code = append(fn.Code, ir.Instr{Op: ir.OpMakeState, Dst: r, Args: []ir.Reg{0, 1, 2, 3, 4, 5, 6}})
			case 2:
				fn.Code = append(fn.Code, ir.Instr{Op: ir.OpBranch, A: r, Idx: i / 2, Idx2: i + 1})
			case 3:
				fn.Code = append(fn.Code, ir.Instr{Op: ir.OpMove, Dst: r, A: (r + 3) % regs})
			case 4:
				fn.Code = append(fn.Code, ir.Instr{Op: ir.OpSuspend, A: r, Dst: ir.NoReg})
				fn.Frags = append(fn.Frags, ir.Fragment{Start: i + 1, Site: len(fn.Frags) - 1})
			}
		}
		fn.Code = append(fn.Code, ir.Instr{Op: ir.OpReturn})
		if got := testing.AllocsPerRun(10, func() { Analyze(fn) }); got > 2 {
			t.Errorf("Analyze of %d instructions allocates %v times, want at most 2", n+1, got)
		}
	}
}
