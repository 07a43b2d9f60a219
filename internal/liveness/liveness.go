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

// Members returns the registers in ascending order, in a slice of exactly
// that length (nil if there are none).
func (s Set) Members() []ir.Reg {
	n := s.Count()
	if n == 0 {
		return nil
	}
	out := make([]ir.Reg, 0, n)
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

// Result holds the live-in set of every instruction: instruction i's is
// the view sets[i*words : (i+1)*words].
type Result struct {
	n, words int
	sets     []uint64
}

// Analyze computes live-in sets for every instruction of f with a standard
// backward fixed-point iteration. OpSuspend is treated as flowing into the
// fragment its resumption enters (see ir.Func.Succs), so registers used
// after a Suspend are live across it.
//
// It allocates twice whatever the length of f: the Result and one array
// holding every live-in set plus the scratch set the iteration computes
// each instruction's live-out in. (An instruction reading more registers
// than usesBuf holds adds a third.)
func Analyze(f *ir.Func) *Result {
	r := new(Result)
	r.Analyze(f)
	return r
}

// Analyze recomputes r for f, reusing r's array when it is large enough:
// a pass over many functions can keep one Result for them all. Sets taken
// from r before are overwritten.
func (r *Result) Analyze(f *ir.Func) {
	n := len(f.Code)
	words := (f.NumRegs + 63) / 64
	size := (n + 1) * words
	if cap(r.sets) < size {
		r.sets = make([]uint64, size)
	} else {
		r.sets = r.sets[:size]
		clear(r.sets)
	}
	r.n, r.words = n, words
	out := Set(r.sets[n*words:])
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
				out.Union(r.set(s))
			}
			// in = uses ∪ (out − def)
			if d := in.Def(); d != ir.NoReg {
				out.Remove(d)
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				out.Add(u)
			}
			if r.set(i).Union(out) {
				changed = true
			}
		}
	}
}

// set is the live-in set of instruction i, a view into r.sets.
func (r *Result) set(i int) Set {
	return Set(r.sets[i*r.words : (i+1)*r.words : (i+1)*r.words])
}

// LiveAt returns the live-in set at an instruction index (nil-safe).
func (r *Result) LiveAt(i int) Set {
	if r == nil || i < 0 || i >= r.n {
		return nil
	}
	return r.set(i)
}
