// Package liveness computes per-instruction live-register sets over the IR.
//
// This is the analysis §5 of the paper describes: "An optimization is to
// save and restore in the continuation only values that are referenced
// after the Suspend." The continuation pass uses live-in sets at fragment
// entry points to decide what a continuation record must carry.
package liveness

import "teapot/internal/ir"

// Set is a dense bitset of registers.
type Set []uint64

// NewSet returns an empty set sized for n registers.
func NewSet(n int) Set { return make(Set, (n+63)/64) }

// Has reports membership.
func (s Set) Has(r ir.Reg) bool {
	if r < 0 {
		return false
	}
	return s[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r; it reports whether the set changed.
func (s Set) Add(r ir.Reg) bool {
	if r < 0 {
		return false
	}
	w, b := int(r)/64, uint(r)%64
	old := s[w]
	s[w] |= 1 << b
	return s[w] != old
}

// Remove deletes r.
func (s Set) Remove(r ir.Reg) {
	if r < 0 {
		return
	}
	s[int(r)/64] &^= 1 << (uint(r) % 64)
}

// Union merges o into s; it reports whether s changed.
func (s Set) Union(o Set) bool {
	changed := false
	for i := range s {
		old := s[i]
		s[i] |= o[i]
		if s[i] != old {
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Members returns the registers in ascending order.
func (s Set) Members() []ir.Reg {
	var out []ir.Reg
	for w, bits := range s {
		for bits != 0 {
			b := bits & -bits
			var i int
			for v := b; v > 1; v >>= 1 {
				i++
			}
			out = append(out, ir.Reg(w*64+i))
			bits &^= b
		}
	}
	return out
}

// Count returns the cardinality.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Result holds live-in sets per instruction.
type Result struct {
	LiveIn []Set
}

// Analyze computes live-in sets for every instruction of f with a standard
// backward fixed-point iteration. OpSuspend is treated as flowing into the
// fragment its resumption enters (see ir.Func.Succs), so registers used
// after a Suspend are live across it.
//
// It allocates three times whatever the length of f: the Result, its LiveIn
// headers, and one array holding every live-in set plus the scratch set the
// iteration computes each instruction's live-out in. (An instruction reading
// more registers than usesBuf holds adds a fourth.)
func Analyze(f *ir.Func) *Result {
	n := len(f.Code)
	words := (f.NumRegs + 63) / 64
	arena := make([]uint64, (n+1)*words)
	res := &Result{LiveIn: make([]Set, n)}
	for i := range res.LiveIn {
		res.LiveIn[i] = Set(arena[i*words : (i+1)*words : (i+1)*words])
	}
	out := Set(arena[n*words:])
	var usesBuf [16]ir.Reg
	var succsBuf [2]int
	uses, succs := usesBuf[:0], succsBuf[:0]
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in := &f.Code[i]
			// out = union of live-in of successors
			clear(out)
			succs = f.Succs(i, succs[:0])
			for _, s := range succs {
				out.Union(res.LiveIn[s])
			}
			// in = uses ∪ (out − def)
			if d := in.Def(); d != ir.NoReg {
				out.Remove(d)
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				out.Add(u)
			}
			if res.LiveIn[i].Union(out) {
				changed = true
			}
		}
	}
	return res
}

// LiveAt returns the live-in set at an instruction index (nil-safe).
func (r *Result) LiveAt(i int) Set {
	if r == nil || i < 0 || i >= len(r.LiveIn) {
		return nil
	}
	return r.LiveIn[i]
}
