package litmus

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// fmtKey is Key as fmt renders it: the form outcome keys have always had.
func fmtKey(t *Test, o Outcome) string {
	var b strings.Builder
	for i, r := range t.Regs() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", r, o.Regs[i])
	}
	b.WriteString(" | ")
	for i, name := range t.Blocks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, o.Mem[i])
	}
	return b.String()
}

// satisfiesByName is Satisfies with each register clause looked up by name.
func satisfiesByName(t *Test, o Outcome, c Cond) bool {
	for _, cl := range c.Clauses {
		var v int64
		if !cl.IsReg {
			v = o.Mem[cl.Block]
		}
		for i, r := range t.Regs() {
			if cl.IsReg && r == cl.Reg {
				v = o.Regs[i]
			}
		}
		if v != cl.Val {
			return false
		}
	}
	return true
}

// TestKeyMatchesFormat: on every corpus test, over seeded outcomes whose
// values are negative, zero, one, multi-digit and the int64 extremes, Key is
// byte for byte the fmt rendering, AppendKey appends exactly it, and
// Satisfies by resolved index agrees with a lookup by register name, on
// outcomes made to meet each condition and to miss it by one clause.
func TestKeyMatchesFormat(t *testing.T) {
	tests, err := LoadDir("../../testdata/litmus")
	if err != nil {
		t.Fatal(err)
	}
	fail, err := LoadDir("../../testdata/litmus/fail")
	if err != nil {
		t.Fatal(err)
	}
	fixed := []int64{0, 1, -1, 2, 10, -10, 99, 12345, -987654, maxVal, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewPCG(1, 2))
	val := func() int64 {
		if rng.IntN(2) == 0 {
			return fixed[rng.IntN(len(fixed))]
		}
		return rng.Int64() - math.MaxInt64/2
	}
	for _, tt := range append(tests, fail...) {
		for i := 0; i < 200; i++ {
			o := Outcome{Regs: make([]int64, len(tt.Regs())), Mem: make([]int64, len(tt.Blocks))}
			for j := range o.Regs {
				o.Regs[j] = val()
			}
			for j := range o.Mem {
				o.Mem[j] = val()
			}
			want := fmtKey(tt, o)
			if got := tt.Key(o); got != want {
				t.Fatalf("%s: Key = %q, want %q", tt.Name, got, want)
			}
			if got := string(tt.AppendKey([]byte("prefix:"), o)); got != "prefix:"+want {
				t.Fatalf("%s: AppendKey = %q, want %q", tt.Name, got, "prefix:"+want)
			}
			for _, c := range tt.Conds {
				if i%2 == 0 { // meet the condition, then perhaps miss one clause
					for _, cl := range c.Clauses {
						if cl.IsReg {
							o.Regs[cl.RegIdx] = cl.Val
						} else {
							o.Mem[cl.Block] = cl.Val
						}
					}
					if i%4 == 0 {
						if cl := c.Clauses[rng.IntN(len(c.Clauses))]; cl.IsReg {
							o.Regs[cl.RegIdx]++
						} else {
							o.Mem[cl.Block]++
						}
					}
				}
				if got, want := tt.Satisfies(o, c), satisfiesByName(tt, o, c); got != want {
					t.Fatalf("%s: Satisfies(%s, %s) = %v, want %v", tt.Name, tt.Key(o), c.String(tt.Blocks), got, want)
				}
			}
		}
	}
}
