// Package vm interprets compiled Teapot IR. The same interpreter executes
// protocols inside the multiprocessor simulator (internal/runtime) and
// inside the model checker (internal/mc) — the paper's "single source"
// property, realized by construction.
package vm

import (
	"fmt"
	"reflect"
	"strings"

	"teapot/internal/ir"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KNil Kind = iota
	KInt
	KBool
	KNode
	KID
	KMsg
	KAccess
	KString
	KState
	KCont
	KAbstract
	KInfo
)

// Value is a Teapot runtime value: 32 bytes, the unit every register,
// parameter, state argument and continuation save is copied in. Scalars live
// in Int; everything else behind Ref — states, continuations, info handles,
// abstract support values, and strings as a *string (see Str), so that the
// value of a string constant points into the instruction that holds it and
// building one allocates nothing.
type Value struct {
	Int  int64
	Ref  any
	Kind Kind
}

// Convenience constructors.
func IntVal(v int64) Value     { return Value{Kind: KInt, Int: v} }
func BoolVal(b bool) Value     { return Value{Kind: KBool, Int: b2i(b)} }
func NodeVal(n int) Value      { return Value{Kind: KNode, Int: int64(n)} }
func IDVal(id int) Value       { return Value{Kind: KID, Int: int64(id)} }
func MsgVal(m int) Value       { return Value{Kind: KMsg, Int: int64(m)} }
func AccessVal(a int64) Value  { return Value{Kind: KAccess, Int: a} }
func StringVal(s string) Value { return Value{Kind: KString, Ref: &s} }
func StateValue(s *StateVal) Value {
	return Value{Kind: KState, Ref: s}
}
func ContVal(c *Cont) Value   { return Value{Kind: KCont, Ref: c} }
func AbstractVal(v any) Value { return Value{Kind: KAbstract, Ref: v} }
func InfoVal(h any) Value     { return Value{Kind: KInfo, Ref: h} }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Bool interprets the value as a boolean.
func (v Value) Bool() bool { return v.Int != 0 }

// State returns the state value, or nil.
func (v Value) State() *StateVal {
	s, _ := v.Ref.(*StateVal)
	return s
}

// Cont returns the continuation, or nil.
func (v Value) Cont() *Cont {
	c, _ := v.Ref.(*Cont)
	return c
}

// Str returns the string, or "".
func (v Value) Str() string {
	if s, _ := v.Ref.(*string); s != nil {
		return *s
	}
	return ""
}

func (v Value) String() string {
	switch v.Kind {
	case KNil:
		return "nil"
	case KInt:
		return fmt.Sprintf("%d", v.Int)
	case KBool:
		return fmt.Sprintf("%t", v.Bool())
	case KNode:
		return fmt.Sprintf("node%d", v.Int)
	case KID:
		return fmt.Sprintf("blk%d", v.Int)
	case KMsg:
		return fmt.Sprintf("msg%d", v.Int)
	case KAccess:
		return fmt.Sprintf("acc%d", v.Int)
	case KString:
		return v.Str()
	case KState:
		if s := v.State(); s != nil {
			return s.String()
		}
		return "state<nil>"
	case KCont:
		if c := v.Cont(); c != nil {
			return c.String()
		}
		return "cont<nil>"
	case KAbstract:
		return fmt.Sprintf("abs(%v)", v.Ref)
	case KInfo:
		return "info"
	}
	return "?"
}

// Equal implements Teapot's "=" on values. States and the continuations
// they carry compare by structure, never by identity: which records share
// storage is the implementation's business (the interpreter reuses one
// record per save-nothing site, the checker rebuilds every record when it
// decodes a state), and the same logical value must compare the same in both.
// An abstract value is whatever its support module hands out; one Go cannot
// compare (a slice, a map) equals nothing, itself included.
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KInt, KBool, KNode, KID, KMsg, KAccess:
		return a.Int == b.Int
	case KString:
		return a.Str() == b.Str()
	case KState:
		sa, sb := a.State(), b.State()
		if sa == nil || sb == nil {
			return sa == sb
		}
		if sa.State != sb.State || len(sa.Args) != len(sb.Args) {
			return false
		}
		for i := range sa.Args {
			if !Equal(sa.Args[i], sb.Args[i]) {
				return false
			}
		}
		return true
	case KCont:
		ca, cb := a.Cont(), b.Cont()
		if ca == nil || cb == nil || ca == cb {
			return ca == cb
		}
		if ca.Fn != cb.Fn || ca.Frag != cb.Frag || len(ca.Saved) != len(cb.Saved) {
			return false
		}
		for i := range ca.Saved {
			if !Equal(ca.Saved[i], cb.Saved[i]) {
				return false
			}
		}
		return true
	default:
		if a.Ref == nil || b.Ref == nil {
			return a.Ref == b.Ref
		}
		return reflect.ValueOf(a.Ref).Comparable() && reflect.ValueOf(b.Ref).Comparable() && a.Ref == b.Ref
	}
}

// StateVal is a state value: a state index plus its arguments (including
// any captured continuations — this is what makes the automaton a
// push-down automaton, per §3 of the paper).
type StateVal struct {
	State int
	Args  []Value
}

func (s *StateVal) String() string {
	if len(s.Args) == 0 {
		return fmt.Sprintf("state%d{}", s.State)
	}
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("state%d{%s}", s.State, strings.Join(parts, ","))
}

// Cont is a continuation record: which handler fragment to resume and the
// saved registers the fragment restores.
type Cont struct {
	Fn    *ir.Func
	Frag  int
	Saved []Value
	Site  int
	// Heap reports whether the record was dynamically allocated (counted
	// in the paper's Table 1 "Allocs" columns).
	Heap bool
}

func (c *Cont) String() string {
	return fmt.Sprintf("cont(%s#%d)", c.Fn.Name, c.Frag)
}
