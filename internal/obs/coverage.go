package obs

import (
	"fmt"
	"sort"
)

// Coverage is the sink behind the coverage plane: it folds an event stream
// into the protocol-surface sets a run actually exercised, so runs on
// different substrates (simulator schedules, fuzz campaigns, exhaustive
// model checking) become comparable artifacts. Three sets are kept:
//
//   - dispatch coverage: the (state, message) pairs a handler activation was
//     entered for, keyed exactly like the compiled IR's handler table. The
//     TIMEOUT pseudo-message, NACK bounces, and deferred-queue redeliveries
//     all arrive through the same dispatch site, so they count like any
//     other pair.
//   - transition coverage: (pre-state, message, post-state) triples observed
//     by pairing each HandlerEnter with its HandlerExit — the dynamic edges
//     of the state graph the static analysis extracts.
//   - fault-action coverage: which network fault actions (drop, dup,
//     reorder, delay) were actually taken, per message tag. Both back ends
//     feed drops and dups as Drop/Dup events and the simulator delays as
//     Delay events; the checker records reordered deliveries via FaultSite.
//
// Deferred-queue pressure is tracked separately: Enqueue events record
// which (state, message) pairs were parked, the defer-path complement of
// dispatch coverage.
//
// Coverage is value-oriented: Merge folds another instance in (the parallel
// checker gives each worker its own and merges at layer barriers — set
// union and count addition commute, so the result is identical for any
// worker count). Like every Sink it is single-goroutine.
type Coverage struct {
	dispatch map[dispatchKey]uint64
	deferred map[dispatchKey]uint64
	trans    map[transKey]uint64
	faults   map[faultKey]uint64
	open     map[openKey]dispatchKey // pending HandlerEnter per (node, block)
}

type transKey struct {
	From int32
	Msg  int32
	To   int32
}

type openKey struct {
	Node  int32
	Block int32
}

type faultKey struct {
	Action FaultAction
	Msg    int32
}

// FaultAction names one network fault the coverage plane distinguishes.
type FaultAction uint8

const (
	FaultActionDrop FaultAction = iota
	FaultActionDup
	FaultActionReorder
	FaultActionDelay
)

var faultActionNames = [...]string{"drop", "dup", "reorder", "delay"}

func (a FaultAction) String() string {
	if int(a) < len(faultActionNames) {
		return faultActionNames[a]
	}
	return fmt.Sprintf("fault%d", int(a))
}

// NewCoverage builds an empty coverage accumulator.
func NewCoverage() *Coverage {
	return &Coverage{
		dispatch: make(map[dispatchKey]uint64),
		deferred: make(map[dispatchKey]uint64),
		trans:    make(map[transKey]uint64),
		faults:   make(map[faultKey]uint64),
		open:     make(map[openKey]dispatchKey),
	}
}

// Emit implements Sink.
func (c *Coverage) Emit(ev Event) {
	switch ev.Kind {
	case KindHandlerEnter:
		c.dispatch[dispatchKey{ev.State, ev.Msg}]++
		c.open[openKey{ev.Node, ev.Block}] = dispatchKey{ev.State, ev.Msg}
	case KindHandlerExit:
		k := openKey{ev.Node, ev.Block}
		if enter, ok := c.open[k]; ok {
			c.trans[transKey{enter.State, enter.Msg, ev.State}]++
			delete(c.open, k)
		}
	case KindEnqueue:
		c.deferred[dispatchKey{ev.State, ev.Msg}]++
	case KindDrop:
		c.faults[faultKey{FaultActionDrop, ev.Msg}]++
	case KindDup:
		c.faults[faultKey{FaultActionDup, ev.Msg}]++
	case KindDelay:
		c.faults[faultKey{FaultActionDelay, ev.Msg}]++
	}
}

// FaultSite records one fault action taken on a message tag directly —
// the model checker's path for a reordered delivery, which no event kind
// describes.
func (c *Coverage) FaultSite(a FaultAction, msg int32) {
	c.faults[faultKey{a, msg}]++
}

// Merge folds o's coverage into c. Union with count addition: commutative
// and associative, so a parallel run merging per-worker instances in any
// order accumulates identical totals.
func (c *Coverage) Merge(o *Coverage) {
	if o == nil {
		return
	}
	for k, n := range o.dispatch {
		c.dispatch[k] += n
	}
	for k, n := range o.deferred {
		c.deferred[k] += n
	}
	for k, n := range o.trans {
		c.trans[k] += n
	}
	for k, n := range o.faults {
		c.faults[k] += n
	}
}

// DispatchPairs returns how many distinct (state, message) pairs were
// dispatched.
func (c *Coverage) DispatchPairs() int { return len(c.dispatch) }

// TransitionEdges returns how many distinct (pre, message, post) triples
// were observed.
func (c *Coverage) TransitionEdges() int { return len(c.trans) }

// DispatchCount returns how often one (state, message) pair dispatched.
func (c *Coverage) DispatchCount(state, msg int) uint64 {
	return c.dispatch[dispatchKey{int32(state), int32(msg)}]
}

// PairName renders a dispatch pair in the canonical "State.MESSAGE" form
// every consumer of the coverage plane keys by (run manifests, the static
// cross-check in internal/analysis, teapot cover diffs).
func PairName(names Names, state, msg int32) string {
	return names.State(state) + "." + names.Message(msg)
}

// CoverageReport is the JSON-ready rendering of a Coverage accumulator.
// Every map is keyed by a canonical string (PairName for dispatch and
// deferred, "pre.MSG->post" for transitions, "action:MSG" for faults) and
// valued by its hit count; encoding/json sorts map keys, so the rendered
// bytes are deterministic.
type CoverageReport struct {
	Dispatch    map[string]uint64 `json:"dispatch"`
	Transitions map[string]uint64 `json:"transitions"`
	Deferred    map[string]uint64 `json:"deferred,omitempty"`
	Faults      map[string]uint64 `json:"faults,omitempty"`
}

// Report renders the accumulated coverage with names resolved.
func (c *Coverage) Report(names Names) *CoverageReport {
	r := &CoverageReport{
		Dispatch:    make(map[string]uint64, len(c.dispatch)),
		Transitions: make(map[string]uint64, len(c.trans)),
	}
	for k, n := range c.dispatch {
		r.Dispatch[PairName(names, k.State, k.Msg)] += n
	}
	for k, n := range c.trans {
		r.Transitions[PairName(names, k.From, k.Msg)+"->"+names.State(k.To)] += n
	}
	if len(c.deferred) > 0 {
		r.Deferred = make(map[string]uint64, len(c.deferred))
		for k, n := range c.deferred {
			r.Deferred[PairName(names, k.State, k.Msg)] += n
		}
	}
	if len(c.faults) > 0 {
		r.Faults = make(map[string]uint64, len(c.faults))
		for k, n := range c.faults {
			r.Faults[k.Action.String()+":"+names.Message(k.Msg)] += n
		}
	}
	return r
}

// Keys returns a map's keys sorted — the canonical order for printing
// coverage sets and diffing them.
func Keys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
