package vm

import "teapot/internal/ir"

// Region is storage for records whose lifetime someone else bounds: the
// model checker gives each worker one and resets it before decoding the next
// state, so every state value, continuation record and argument vector a
// decoded world and its successors build is carved from slabs the worker
// keeps instead of being allocated and dropped microseconds later. A nil
// *Region is the heap — what the simulator and every world that must outlive
// an expansion use — so each record type has one constructor and its callers
// never ask which they have.
type Region struct {
	vals   slab[Value]
	states slab[StateVal]
	conts  slab[Cont]
}

// slab hands out runs of T from chunks it keeps. A chunk is never moved or
// regrown, so a run stays where it is until the reset after it.
type slab[T any] struct {
	chunks    [][]T
	cur, used int // chunks[cur][:used] is handed out, like all of chunks[:cur]
}

// take returns n contiguous records holding whatever they last held.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	// Chunks double, so a region settles at a handful however much one
	// state needs; the skipped tail of a chunk too short for n is the waste.
	s.chunks = append(s.chunks, make([]T, max(n, 32<<min(len(s.chunks), 16))))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// Reset takes back everything the region handed out; nothing built in it may
// be reachable afterwards (runtime.Region spells the rule out).
func (r *Region) Reset() {
	r.vals.reset()
	r.states.reset()
	r.conts.reset()
}

func (s *slab[T]) reset() { s.cur, s.used = 0, 0 }

// Values returns a vector of n values for the caller to fill, every one of
// them: from a region they hold whatever they last held.
func (r *Region) Values(n int) []Value {
	if r == nil {
		return make([]Value, n)
	}
	return r.vals.take(n)
}

// NewState builds a value of state with n arguments, which the caller fills
// as it fills a Values vector. On the heap a one-argument state — the only
// kind with arguments the bundled protocols declare — is a single allocation
// holding the record and its argument.
func (r *Region) NewState(state, n int) *StateVal {
	if r != nil {
		sv := &r.states.take(1)[0]
		sv.State, sv.Args = state, r.vals.take(n)
		return sv
	}
	if n == 1 {
		rec := new(struct {
			sv   StateVal
			args [1]Value
		})
		rec.sv = StateVal{State: state, Args: rec.args[:]}
		return &rec.sv
	}
	return &StateVal{State: state, Args: make([]Value, n)}
}

// NewCont builds a record of suspend site s saving n registers, which the
// caller fills as it fills a Values vector. On the heap a record saving one
// or two registers — nearly every bundled site that saves any — is a single
// allocation holding the record and its saves.
func (r *Region) NewCont(s *ir.SuspendSite, n int) *Cont {
	var c *Cont
	var saved []Value
	switch {
	case r != nil:
		c, saved = &r.conts.take(1)[0], r.vals.take(n)
	case n == 1:
		rec := new(struct {
			c     Cont
			saved [1]Value
		})
		c, saved = &rec.c, rec.saved[:]
	case n == 2:
		rec := new(struct {
			c     Cont
			saved [2]Value
		})
		c, saved = &rec.c, rec.saved[:]
	default:
		c, saved = new(Cont), make([]Value, n)
	}
	*c = Cont{Fn: s.Func, Frag: s.FragIdx, Saved: saved, Site: s.ID, Heap: s.Heap}
	return c
}
