// Package litmus is the cross-substrate litmus-test harness: it parses a
// tiny workload DSL (.lit files — per-node scripts of gets, puts, and
// compare-and-swaps over named blocks, plus expected / allowed / forbidden
// final-state conditions), runs each test differentially under the
// simulator (seeded stochastic schedules), the fuzzer (recorded schedule
// search with delta-debugged reproducers), and the model checker
// (exhaustive outcome enumeration via the scripted-client plane), and
// diffs the three outcome sets.
//
// An outcome is the test's terminal observation: every value a get or CAS
// observed (the register file, in per-node program order) plus the final
// value of every named block. The checker enumerates the complete
// reachable outcome set, so it is the reference: any outcome the
// simulator or fuzzer produced that the checker never reached is a
// harness bug, while checker-only outcomes are the expected coverage gap
// of sampling. A condition names a subset of outcomes:
//
//   - forbid: no substrate may reach a satisfying outcome — one doing so
//     is a named coherence failure with a replayable counterexample
//     (checker trace via mc.ReplaySteps, fuzzer schedule via ddmin).
//   - allow: the checker must reach at least one satisfying outcome
//     (guards tests against being vacuously forbidden-free because the
//     interesting interleaving is unreachable).
//   - expect: every checker-reachable outcome must satisfy it.
//
// Values use the tempest packed-word data model (tempest.PackVal): each
// store creates a fresh global version with the stored 32-bit value
// packed in, so the monotone stale-discard rule orders data identically
// in all three substrates and the oracle judges them with one profile.
package litmus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OpKind classifies a scripted operation.
type OpKind uint8

// Scripted operations.
const (
	Get OpKind = iota // load; observed value lands in a named register
	Put               // store of Val
	CAS               // compare-and-swap: observe, store Val if observed == Expect
)

func (k OpKind) String() string {
	switch k {
	case Get:
		return "get"
	case Put:
		return "put"
	case CAS:
		return "cas"
	}
	return "op?"
}

// Op is one scripted operation. Block indexes Test.Blocks; Reg names the
// register a Get or CAS observation lands in (the parser guarantees every
// observing op has one, unique across the test).
type Op struct {
	Kind   OpKind
	Block  int
	Val    int64  // Put/CAS store value (1..2^31-1)
	Expect int64  // CAS comparison value (0..2^31-1)
	Reg    string // Get/CAS destination register
}

func (o Op) String() string {
	switch o.Kind {
	case Get:
		return fmt.Sprintf("get blk%d -> %s", o.Block, o.Reg)
	case Put:
		return fmt.Sprintf("put blk%d %d", o.Block, o.Val)
	case CAS:
		return fmt.Sprintf("cas blk%d %d %d -> %s", o.Block, o.Expect, o.Val, o.Reg)
	}
	return "op?"
}

// Sense is a condition's polarity.
type Sense uint8

// Condition senses.
const (
	Forbid Sense = iota // no reachable outcome may satisfy
	Allow               // the checker must reach a satisfying outcome
	Expect              // every checker-reachable outcome must satisfy
)

func (s Sense) String() string {
	switch s {
	case Forbid:
		return "forbid"
	case Allow:
		return "allow"
	case Expect:
		return "expect"
	}
	return "sense?"
}

// Clause is one conjunct of a condition: register Reg (when IsReg) or
// block Block has final value Val.
type Clause struct {
	IsReg  bool
	Reg    string // register name (IsReg)
	RegIdx int    // Reg's index in Test.Regs, resolved by Parse (IsReg)
	Block  int    // block index (!IsReg)
	Val    int64
}

// Cond is a named final-state condition: the conjunction of its clauses.
type Cond struct {
	Sense   Sense
	Name    string
	Clauses []Clause
}

// String renders the condition in DSL syntax.
func (c Cond) String(blocks []string) string {
	parts := make([]string, len(c.Clauses))
	for i, cl := range c.Clauses {
		name := cl.Reg
		if !cl.IsReg {
			name = blocks[cl.Block]
		}
		parts[i] = fmt.Sprintf("%s=%d", name, cl.Val)
	}
	return fmt.Sprintf("%s %s: %s", c.Sense, c.Name, strings.Join(parts, " & "))
}

// Test is one parsed litmus test.
type Test struct {
	Name   string
	Proto  string   // bundled-protocol registry name
	Nodes  int      // machine size (>= number of scripted nodes)
	Blocks []string // block names, declaration order = block index
	Net    string   // netmodel flag syntax ("" = perfect network)
	Init   []int64  // initial value per block (0 = uninitialized)
	Progs  [][]Op   // per-node scripts (index = node id)
	Conds  []Cond
	// MustFail marks a negative-path corpus entry: running the test is
	// expected to fail with this class ("violation", "error", or
	// "forbidden:<name>"). The harness still just runs the test; suites
	// assert the failure matches.
	MustFail string
	Path     string // source file (diagnostics)

	regs []string // Regs, listed once by validate
}

// BlockIndex resolves a block name (-1 when unknown).
func (t *Test) BlockIndex(name string) int {
	for i, b := range t.Blocks {
		if b == name {
			return i
		}
	}
	return -1
}

// Regs returns the test's register names in canonical order: node order,
// then program order within the node — the order outcome keys list them.
// The slice is the test's own; callers must not modify it.
func (t *Test) Regs() []string { return t.regs }

// obsCount returns the number of observing ops (gets and CASes) in node
// n's script — the register-file length a clean run must produce.
func (t *Test) obsCount(n int) int {
	if n >= len(t.Progs) {
		return 0
	}
	c := 0
	for _, op := range t.Progs[n] {
		if op.Reg != "" {
			c++
		}
	}
	return c
}

// validate checks cross-references after parsing.
func (t *Test) validate() error {
	if t.Name == "" {
		return fmt.Errorf("missing litmus header")
	}
	if t.Proto == "" {
		return fmt.Errorf("missing proto")
	}
	if len(t.Blocks) == 0 {
		return fmt.Errorf("missing blocks")
	}
	if len(t.Progs) == 0 {
		return fmt.Errorf("no node scripts")
	}
	if t.Nodes < len(t.Progs) {
		return fmt.Errorf("nodes %d < %d scripted nodes", t.Nodes, len(t.Progs))
	}
	regIdx := map[string]int{}
	for _, prog := range t.Progs {
		for _, op := range prog {
			if op.Reg == "" {
				continue
			}
			if _, dup := regIdx[op.Reg]; dup {
				return fmt.Errorf("register %s observed twice", op.Reg)
			}
			regIdx[op.Reg] = len(t.regs)
			t.regs = append(t.regs, op.Reg)
		}
	}
	for _, b := range t.Blocks {
		if _, ok := regIdx[b]; ok {
			return fmt.Errorf("block %s shadows a register", b)
		}
	}
	condNames := map[string]bool{}
	for _, c := range t.Conds {
		if condNames[c.Name] {
			return fmt.Errorf("condition %s declared twice", c.Name)
		}
		condNames[c.Name] = true
		for i, cl := range c.Clauses {
			if !cl.IsReg {
				continue
			}
			idx, ok := regIdx[cl.Reg]
			if !ok {
				return fmt.Errorf("condition %s references unknown register %s", c.Name, cl.Reg)
			}
			c.Clauses[i].RegIdx = idx
		}
	}
	return nil
}

// Outcome is one terminal observation: every observed value (the register
// file, unpacked, in canonical register order) and every block's final
// value (unpacked, in declaration order).
type Outcome struct {
	Regs []int64
	Mem  []int64
}

// Key renders the outcome's canonical string form, e.g.
// "r0=1 r1=0 | x=1 y=2". Keys are the identity outcome sets diff by.
func (t *Test) Key(o Outcome) string { return string(t.AppendKey(nil, o)) }

// AppendKey appends the outcome's Key to b and returns the extended buffer.
func (t *Test) AppendKey(b []byte, o Outcome) []byte {
	for i, r := range t.regs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(b, r...), '=')
		b = strconv.AppendInt(b, o.Regs[i], 10)
	}
	b = append(b, " | "...)
	for i, name := range t.Blocks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(append(b, name...), '=')
		b = strconv.AppendInt(b, o.Mem[i], 10)
	}
	return b
}

// Satisfies reports whether the outcome satisfies the condition (the
// conjunction of its clauses).
func (t *Test) Satisfies(o Outcome, c Cond) bool {
	for _, cl := range c.Clauses {
		if cl.IsReg {
			if o.Regs[cl.RegIdx] != cl.Val {
				return false
			}
		} else if o.Mem[cl.Block] != cl.Val {
			return false
		}
	}
	return true
}

// ForbiddenBy returns the name of the first forbid condition the outcome
// satisfies ("" when none).
func (t *Test) ForbiddenBy(o Outcome) string {
	for _, c := range t.Conds {
		if c.Sense == Forbid && t.Satisfies(o, c) {
			return c.Name
		}
	}
	return ""
}

// SortedKeys renders an outcome set as sorted canonical keys.
func (t *Test) SortedKeys(set map[string]Outcome) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
