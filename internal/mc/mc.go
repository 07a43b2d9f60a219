// Package mc is a Murphi-style explicit-state model checker for compiled
// Teapot protocols (§7 of the paper). It explores, breadth-first, every
// interleaving of message deliveries (with bounded network reordering) and
// nondeterministically generated processor events, checking:
//
//   - no protocol errors (the Error builtin, unhandled messages, runaway
//     handlers) — the paper's "does not receive a message that is not
//     anticipated in a given state";
//   - no deadlock (a processor stalled with an empty network and no
//     deliverable messages);
//   - the single-writer/multiple-readers coherence invariant on the
//     fine-grain access-control state;
//   - bounded channels and deferred queues (a flood indicates livelock).
//
// Unlike the paper, which generates Murphi text and runs Dill et al.'s
// checker, this package explores the *same compiled IR* the simulator
// executes, so verified and executable protocols agree by construction.
// internal/murphi still renders Murphi source for the dual-target property.
package mc

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/tempest"
)

// Config parameterizes a verification run.
type Config struct {
	Proto   *runtime.Protocol
	Support runtime.Support

	// Nodes and Blocks size the machine; block b's home is node
	// runtime.HomeOf(b, Nodes).
	Nodes  int
	Blocks int

	// Net is the network fault model. The checker explores its faults
	// nondeterministically: every in-flight message is a drop / duplicate
	// candidate while the corresponding budget lasts, and delivery
	// may overtake up to Net.EffectiveReorder() earlier messages. The spent
	// budgets are part of the canonical state, so exploration stays finite
	// and deterministic for any worker count.
	Net netmodel.Model

	Events EventGen

	// Client, when non-nil, attaches a scripted litmus workload: each node
	// runs its Client program as enumerated client actions (see client.go)
	// instead of — or alongside — Events-generated processor events. Client
	// state (program counters, observed values, block contents) joins the
	// canonical encoding, so two worlds whose clients have diverged are
	// distinct states.
	Client *Client

	// Terminal, when non-nil (requires Client), is called on every state
	// where all scripts have finished, no processor is stalled, and the
	// network is drained. A non-empty return is reported as a violation of
	// kind "litmus" with the returned message and the trace leading to the
	// terminal state — the hook litmus harnesses judge forbidden final
	// states with. With Workers > 1 it must be safe for concurrent use. The
	// world is the worker's own, overwritten for the next state it expands:
	// the hook must not retain it or anything it hands out by reference
	// (ClientRegs and ClientFinal return copies).
	Terminal func(*World) string

	MaxStates int // 0 = unlimited

	// Workers is the number of goroutines expanding each BFS layer
	// (0 = GOMAXPROCS). Results are identical for any worker count; see
	// Check. With Workers > 1, Support and Events implementations must be
	// safe for concurrent use (the bundled protocol modules are).
	Workers int

	CheckCoherence bool

	// Symmetry selects certificate-gated symmetry reduction: canonicalize
	// every successor to the lexicographically smallest member of its orbit
	// under the admissible node/block permutation group before visited-set
	// lookup. SymmetryOff (the zero value) explores the full state space;
	// SymmetryAuto enables reduction when the static prover certifies the
	// protocol and the support/event modules vouch for their routines
	// (falling back to Off, with the reason in Result.SymmetryNote);
	// SymmetryOn makes any refusal a hard error naming the first witness.
	// Verdicts are identical either way — only the state count shrinks.
	Symmetry SymmetryMode

	// Progress, when non-nil, is invoked from the driver goroutine at every
	// layer barrier with a snapshot of the exploration. It must not call
	// back into the checker. Installing it never changes what the run
	// computes: every Result figure stays bit-identical.
	Progress func(ProgressInfo)

	// Coverage, when non-nil, accumulates the dispatch / transition /
	// fault-action coverage of the exploration (see obs.Coverage). An
	// exhaustive run defines the 100% dynamic reference for the coverage
	// plane: every enabled action of every reachable state is applied
	// exactly once, so the accumulated sets are identical for any worker
	// count (workers accumulate privately and merge at layer barriers).
	// Installing it never changes what the run computes.
	Coverage *obs.Coverage

	// Obs, when non-nil, is attached to the engines of worlds built by
	// InitialWorld and ReplaySteps, and the World-level fault actions
	// (drop, dup) emit the same Drop/Dup events the simulator's machine
	// emits — so a counterexample replay produces the event stream a live
	// run of the same schedule would, and the oracle or a Coverage sink
	// judges replayed traces identically. Check ignores it: exploration
	// never attaches sinks to the worlds it expands.
	Obs obs.Sink

	// Resolved by normalize: the message tag of the TIMEOUT pseudo-message
	// (-1 when the protocol does not declare it).
	timeoutTag int
}

// ProgressInfo is one layer-barrier snapshot handed to Config.Progress.
// All fields except Elapsed are deterministic.
type ProgressInfo struct {
	Depth       int           // BFS depth just expanded
	Frontier    int           // states discovered for the next layer
	States      int           // visited states committed so far
	Transitions int64         // transitions taken so far
	Elapsed     time.Duration // wall time since Check started
	// VisitedBytes is what the visited store's committed structures
	// retain: key chunk capacity, per-state locators and records, and the
	// table's slots. It is the same for any worker count.
	VisitedBytes int64
	// SymmetryGroup is the order of the permutation group the run reduces
	// by (1 when reduction is off or trivial).
	SymmetryGroup int
}

// StatesPerSec returns the average exploration rate so far.
func (p ProgressInfo) StatesPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.States) / p.Elapsed.Seconds()
}

// DedupRatio returns transitions per committed state — how many arrows hit
// states that were already visited (1.0 means no sharing in the graph).
func (p ProgressInfo) DedupRatio() float64 {
	if p.States == 0 {
		return 0
	}
	return float64(p.Transitions) / float64(p.States)
}

// normalize fills configuration defaults in place.
func (cfg *Config) normalize() {
	cfg.timeoutTag = -1
	if cfg.Proto != nil {
		cfg.timeoutTag = cfg.Proto.MsgIndex("TIMEOUT")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = goruntime.GOMAXPROCS(0)
	}
}

// validate refuses what exploration and replay would otherwise fail on
// later and less clearly: a machine with no node or no block (the home rule
// divides by Nodes; the symmetry group is sized by it), a malformed
// fault model, a client script written for a larger machine.
func (cfg *Config) validate() error {
	if cfg.Nodes < 1 || cfg.Blocks < 1 {
		return fmt.Errorf("mc: a machine of %d node(s) and %d block(s): want at least 1 of each", cfg.Nodes, cfg.Blocks)
	}
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.Client != nil {
		return cfg.Client.fits(cfg.Nodes, cfg.Blocks)
	}
	return nil
}

// EventGen enumerates the protocol events a processor may spontaneously
// issue in a given global state (the paper's hand-written "event generation
// loop", §7). The processor is single-issue, and that rule is the checker's:
// Enabled is never called for a node stalled on a fault, so a generator
// describes only what a running processor may do. When Config.Workers > 1
// the checker calls Enabled from multiple goroutines (on distinct worlds),
// so implementations must not mutate shared state without synchronization.
// The world is valid only for the call — the checker decodes the next state
// it expands over it — so Enabled must not retain it. The checker only reads
// the slice it gets back: a generator may build its lists once and return
// the same one every time (the bundled ones do).
type EventGen interface {
	Enabled(w *World, node, block int) []Event
}

// Event is one processor-issued protocol event.
type Event struct {
	Name   string
	Tag    int
	Stalls bool // the processor stalls until WakeUp on this block
}

// Result summarizes a run. Every figure except Elapsed is deterministic:
// identical for any Workers setting and across repeated runs.
type Result struct {
	States      int
	Transitions int
	MaxDepth    int
	Violation   *Violation
	Elapsed     time.Duration

	// Workers is the worker count the run actually used.
	Workers int
	// PeakFrontier is the largest BFS layer encountered — the high-water
	// mark for per-layer memory.
	PeakFrontier int
	// Decodes counts full state decodes — exactly one per expanded state
	// (a successor re-decodes only the segments its action touches), each
	// into the world its worker keeps.
	Decodes int64
	// KeyBytes is the total length of the successor keys built, one per
	// transition that reached a state. KeyBytesEncoded is how many bytes
	// were actually encoded to build them: the segments copied from the
	// parent's key (see World.encodeVia) are left out, and so is every piece
	// of a symmetry challenger read from the remap table; a piece remapped
	// on the spot, its segment's images not in the table yet, is counted
	// in, once per challenger that needed it — so without reduction the
	// ratio is the share of a key an action touches, and with it that plus
	// the price of canonicalization. The images the table fills at the
	// barriers are not counted.
	KeyBytes, KeyBytesEncoded int64
	// VisitedBytes is what the visited store retains at the end of the
	// run (see ProgressInfo).
	VisitedBytes int64
	// Segments is how many distinct key segments the visited store
	// interned — a state is stored as the ids of its segments — and
	// SegmentBytes their total length.
	Segments     int
	SegmentBytes int64
	// SymmetryGroup is the order of the node/block permutation group the
	// run canonicalized by; 1 means no reduction (off, refused, or trivial).
	SymmetryGroup int
	// RemapPieces is how many remapped segments the remap table holds, and
	// RemapBytes what it retains (both 0 without reduction).
	RemapPieces int
	RemapBytes  int64
	// SymmetryNote explains why SymmetryAuto fell back to no reduction
	// ("" when reduction ran or was off).
	SymmetryNote string
	// Memo reports the transition memo: what it holds, how often it served
	// a handler run, or why the run bypassed it.
	Memo MemoStats
}

// Violation describes a found bug with its event trace from the initial
// state (the paper: "Murphi produces a trace of events leading to the
// erroneous state").
type Violation struct {
	Kind string
	Msg  string
	// Waits explains a deadlock: one line per stalled (node, block), saying
	// what the block waits for (see waitsFor). Empty for other kinds.
	Waits []string
	Trace []string
	// Steps is the same trace in machine-readable form, replayable with
	// ReplaySteps. Its final entry is the violating transition itself
	// (absent for deadlocks, which are a property of the last state, not
	// of a transition).
	Steps []Step
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", v.Kind, v.Msg)
	for _, w := range v.Waits {
		fmt.Fprintf(&b, "  %s\n", w)
	}
	for i, step := range v.Trace {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, step)
	}
	return b.String()
}

// World is one reachable global state, materialized for expansion. Event
// generators read it through the accessor methods.
type World struct {
	cfg *Config
	// engines[n] is the engine the world reads node n through; owned[n] is
	// the engine the world may run and overwrite. They are the same engine
	// except in a successor from derive, whose engines point at its
	// parent's for every node but the one its action runs on.
	engines  []*runtime.Engine
	owned    []*runtime.Engine
	channels [][]*runtime.Message // [from*Nodes+to]; the arrays are the world's own
	access   []sema.AccessMode    // [node*Blocks+block]
	stalled  []int                // per node: block stalled on, or -1

	// Spent fault budgets (Config.Net). Part of the canonical encoding:
	// two worlds that differ only in how many faults it took to reach them
	// are different states, which keeps the search finite under budgets and
	// the trace replay exact. With all budgets 0 they stay constant and the
	// state count matches a fault-free run.
	drops int
	dups  int

	// Scripted-client plane (Config.Client; see client.go). nil without a
	// client, in which case none of it is encoded. pcs is each node's next
	// script position, regs the values its completed gets/CASes observed,
	// cver the per-block store counter, cmem each node's packed copy of
	// each block ([node*Blocks+block], tempest.PackVal words).
	pcs  []int
	regs [][]int64
	cver []int64
	cmem []int64

	// obsSink, when non-nil, receives the world's fault events (Drop/Dup,
	// in the simulator's emission shape) and is attached to every engine.
	// Set from Config.Obs for replay worlds, or per successor by the
	// checker's coverage accounting. Never part of the canonical encoding.
	obsSink obs.Sink

	sendErr error

	// rec, when non-nil, journals the Machine calls of the handler run the
	// checker is about to memoize (see memo.go).
	rec *recorder

	dec runtime.Decoder // decodeInto's reader, kept here so it is not allocated per state

	// src is the key decodeInto last read this world from — or, in a
	// successor from derive, its parent's — and segEnds[k] where segment
	// k ends in it: engine k for k < Nodes, then channel k-Nodes. A successor
	// is derived from the segments its action touches, and its key copies the
	// others (see encodeVia). src is read in place: it must not move while a
	// state's successors are derived and keyed.
	src     []byte
	segEnds []int
}

// setObs attaches a sink to the world and all its engines (nil detaches).
func (w *World) setObs(s obs.Sink) {
	w.obsSink = s
	for _, e := range w.engines {
		e.SetObs(s)
	}
}

// emitFault emits the tempest machine's own fault event.
func (w *World) emitFault(kind obs.Kind, from, to int, m *runtime.Message) {
	if w.obsSink == nil {
		return
	}
	w.obsSink.Emit(tempest.FaultEvent(kind, from, to, m))
}

// Drops returns how many messages have been dropped on the path to this
// world (the deadlock reporter uses it to tell a lost-message stall from a
// genuine protocol deadlock).
func (w *World) Drops() int { return w.drops }

// StateName returns the protocol state name of (node, block).
func (w *World) StateName(node, block int) string {
	return w.engines[node].Blocks[block].StateName(w.cfg.Proto)
}

// Access returns the access mode of (node, block).
func (w *World) Access(node, block int) sema.AccessMode {
	return w.access[node*w.cfg.Blocks+block]
}

// IsHome reports whether node is block's home.
func (w *World) IsHome(node, block int) bool { return w.HomeNode(block) == node }

// Engine exposes a node's engine (for invariant helpers).
func (w *World) Engine(node int) *runtime.Engine { return w.engines[node] }

// BlockVarInt reads a per-block protocol variable's integer payload (event
// generators use this to observe protocol bookkeeping such as phase votes).
func (w *World) BlockVarInt(node, block, slot int) int64 {
	return w.engines[node].Blocks[block].Vars[slot].Int
}

// Nodes returns the machine size.
func (w *World) Nodes() int { return w.cfg.Nodes }

// AnyMessage reports whether any in-flight or deferred message satisfies
// pred (event generators use this to model application barriers: "the
// network is quiet for this block").
func (w *World) AnyMessage(pred func(m *runtime.Message) bool) bool {
	for _, ch := range w.channels {
		for _, m := range ch {
			if pred(m) {
				return true
			}
		}
	}
	for _, e := range w.engines {
		for _, b := range e.Blocks {
			for _, m := range b.Deferred {
				if pred(m) {
					return true
				}
			}
		}
	}
	return false
}

// Proto returns the protocol under check.
func (w *World) Proto() *runtime.Protocol { return w.cfg.Proto }

// ---- runtime.Machine implementation ----

func (w *World) Send(from, dst int, m *runtime.Message) {
	if dst < 0 || dst >= w.cfg.Nodes {
		w.sendErr = fmt.Errorf("send to invalid node %d", dst)
		return
	}
	if w.cmem != nil && m.Data && m.ID >= 0 && m.ID < w.cfg.Blocks {
		m.Val = w.cmem[from*w.cfg.Blocks+m.ID]
	}
	ch := from*w.cfg.Nodes + dst
	w.channels[ch] = append(w.channels[ch], m)
	if w.rec != nil {
		w.rec.send(w.engines[from], dst, m)
	}
}

func (w *World) AccessChange(node, id int, mode sema.AccessMode) {
	w.access[node*w.cfg.Blocks+id] = mode
	if w.rec != nil {
		w.rec.op(jAccess, id, mode)
	}
}

func (w *World) RecvData(node, id int, mode sema.AccessMode) {
	w.access[node*w.cfg.Blocks+id] = mode
	if w.rec != nil {
		w.rec.op(jRecv, id, mode)
	}
}

// RecvDataMsg implements runtime.DataMachine: the access change RecvData
// would make, plus — with a scripted client attached — installing the
// message's transported block value under the same monotone stale-discard
// rule the tempest machine applies. Without a client it is exactly
// RecvData.
func (w *World) RecvDataMsg(node, id int, mode sema.AccessMode, msg *runtime.Message) {
	w.access[node*w.cfg.Blocks+id] = mode
	if w.rec != nil {
		w.rec.op(jRecv, id, mode)
	}
	if w.cmem == nil || id < 0 || id >= w.cfg.Blocks {
		return
	}
	if cur := w.cmem[node*w.cfg.Blocks+id]; msg.Val > cur {
		w.cmem[node*w.cfg.Blocks+id] = msg.Val
	}
}

func (w *World) WakeUp(node, id int) {
	if w.rec != nil {
		w.rec.op(jWake, id, 0)
	}
	if w.stalled[node] == id {
		w.stalled[node] = -1
		w.clientWake(node, id)
	}
}

func (w *World) HomeNode(id int) int { return runtime.HomeOf(id, w.cfg.Nodes) }

func (w *World) Print(node int, s string) {}

// newWorld builds the initial state.
func newWorld(cfg *Config) *World {
	w := &World{
		cfg:      cfg,
		channels: make([][]*runtime.Message, cfg.Nodes*cfg.Nodes),
		access:   make([]sema.AccessMode, cfg.Nodes*cfg.Blocks),
		stalled:  make([]int, cfg.Nodes),
	}
	w.owned = make([]*runtime.Engine, cfg.Nodes)
	for n := range w.owned {
		w.stalled[n] = -1
		w.owned[n] = runtime.NewEngine(cfg.Proto, n, cfg.Blocks, w, cfg.Support)
	}
	w.engines = append([]*runtime.Engine(nil), w.owned...)
	for b := 0; b < cfg.Blocks; b++ {
		w.access[w.HomeNode(b)*cfg.Blocks+b] = sema.AccReadWrite
	}
	if cfg.Client != nil {
		w.initClient(cfg.Client)
	}
	if cfg.Obs != nil {
		w.setObs(cfg.Obs)
	}
	return w
}

// keyBuf is an encoder that also records how the key it holds divides
// into the segments the visited store interns it by: one per engine, one
// per node's row of outgoing channels, and the tail — coarser than the
// world's (World.src), whose channels are one segment each, because a
// channel is mostly a byte or two and its id would cost as much. ends[k]
// is where store segment k ends; the tail's end, the key's, is not
// recorded. Bit k of known is set when store segment k, one of the first
// 64, is known to have intern id ids[k]: it was copied whole from the key
// of the stored state the world was derived from (encodeVia and
// keyScratch.plain), or the memo or the remap table named it.
type keyBuf struct {
	runtime.Encoder
	ends  []int
	ids   []uint32
	known uint64
}

// sizeEnds sizes kb's ends and ids for a key of a machine of the given
// nodes, forgets every id, and returns the ends to be filled in.
func (kb *keyBuf) sizeEnds(nodes int) []int {
	if cap(kb.ends) < 2*nodes {
		kb.ends, kb.ids = make([]int, 2*nodes), make([]uint32, 2*nodes+1)
	}
	kb.ends, kb.ids, kb.known = kb.ends[:2*nodes], kb.ids[:2*nodes+1], 0
	return kb.ends
}

// know records that store segment k has intern id id.
func (kb *keyBuf) know(k int, id uint32) {
	if k < 64 {
		kb.ids[k], kb.known = id, kb.known|1<<k
	}
}

// segmentOf returns segment k of key, whose segments but the last end at
// ends.
func segmentOf(key []byte, ends []int, k int) []byte {
	start, end := 0, len(key)
	if k > 0 {
		start = ends[k-1]
	}
	if k < len(ends) {
		end = ends[k]
	}
	return key[start:end]
}

// partFirst and partLast return the world segments that store segment
// part, not the tail, starts and ends with (see keyBuf): engine part, or a
// row's first and last channels.
func partFirst(part, nodes int) int {
	if part < nodes {
		return part
	}
	return (part - nodes + 1) * nodes
}

func partLast(part, nodes int) int {
	if part < nodes {
		return part
	}
	return (part-nodes+2)*nodes - 1
}

// encoderPool backs the string-returning encode (Snapshot, the root state,
// tests) so it allocates only the string it returns. The checker's hot
// path encodes into per-worker scratch instead (see keyScratch).
var encoderPool = sync.Pool{New: func() any { return new(keyBuf) }}

// encode canonically serializes the whole world.
func (w *World) encode() (string, error) {
	kb := encoderPool.Get().(*keyBuf)
	defer encoderPool.Put(kb)
	kb.Reset(nil)
	if err := w.encodeTo(kb); err != nil {
		return "", err
	}
	return string(kb.Bytes()), nil
}

// encodeTo writes the world's canonical serialization into kb. Under the
// encoder's remap (π over nodes, σ over blocks) it writes the encoding of
// the world's image instead: engines, channels, access and stalled entries
// are walked in π⁻¹/σ⁻¹ order and the encoder maps every identity value it
// writes, so the bytes equal those of the permuted world without that
// world ever existing. With no remap this is the plain encoding.
func (w *World) encodeTo(kb *keyBuf) error {
	enc := &kb.Encoder
	r := enc.Remap()
	nodes := w.cfg.Nodes
	ends := kb.sizeEnds(nodes)
	for i := 0; i < nodes; i++ {
		if err := w.engines[r.SrcNode(i)].EncodeState(enc); err != nil {
			return err
		}
		ends[i] = len(enc.Bytes())
	}
	for from := 0; from < nodes; from++ {
		for ch := from * nodes; ch < (from+1)*nodes; ch++ {
			if err := w.encodeChannel(enc, ch); err != nil {
				return err
			}
		}
		ends[nodes+from] = len(enc.Bytes())
	}
	w.encodeTail(enc)
	return nil
}

// encodeVia writes the plain encoding of w, which must be the world w.src
// was decoded into, or derived from it, with via applied and nothing else.
// Only the segments via may change (action.changes) are encoded; each
// maximal run of the others is copied from src whole. Which those are is a
// function of the action — there are no dirty flags to forget to set.
// copied is how many bytes were copied. from, if set, holds the ids of the
// segments of the stored state src is the key of: kb knows the ids of the
// store segments copied whole. With hit set, via was replayed from the
// memo, not run: the changed segments are the hit's to write — kb knows
// the engine's id if the memo does — and w need hold only the successor's
// tail.
func (w *World) encodeVia(kb *keyBuf, via *action, hit *memoHit, from []uint32) (copied int, err error) {
	enc := &kb.Encoder
	nodes := w.cfg.Nodes
	ends := kb.sizeEnds(nodes)
	// part is the next store segment to end, at world segment last.
	part, last := 0, 0
	// The changed ranges, then an empty one at the end of the channels, so
	// that the run after the last range is copied too.
	end := nodes + nodes*nodes
	var buf [4]segRange
	next := 0 // the first segment not yet written
	for _, c := range append(via.changes(nodes, buf[:]), segRange{end, end}) {
		if c.lo > next {
			run := w.span(next, c.lo)
			shift := len(enc.Bytes()) - (w.segEnds[c.lo-1] - len(run))
			enc.Raw(run)
			copied += len(run)
			// The store segments ending in the run end where they did in
			// src, shifted; those it holds whole are copied.
			for ; last < c.lo; part, last = part+1, partLast(part+1, nodes) {
				if partFirst(part, nodes) >= next && from != nil {
					kb.know(part, from[part])
				}
				ends[part] = w.segEnds[last] + shift
			}
		}
		for seg := c.lo; seg < c.hi; seg++ {
			switch {
			case hit != nil:
				err = hit.segment(enc, seg)
				if seg == hit.touch && hit.interned {
					kb.know(seg, hit.id)
				}
			case seg < nodes:
				err = w.engines[seg].EncodeState(enc)
			default:
				err = w.encodeChannel(enc, seg-nodes)
			}
			if err != nil {
				return copied, err
			}
			if seg == last {
				ends[part] = len(enc.Bytes())
				part, last = part+1, partLast(part+1, nodes)
			}
		}
		next = c.hi
	}
	w.encodeTail(enc)
	return copied, nil
}

// encodeChannel writes channel ch of the world's image under the encoder's
// remap (ch = from*Nodes + to in image positions): its length, then its
// messages, built — for info-handle reconstruction — by the destination's
// engine.
func (w *World) encodeChannel(enc *runtime.Encoder, ch int) error {
	r, nodes := enc.Remap(), w.cfg.Nodes
	dst := r.SrcNode(ch % nodes)
	msgs := w.channels[r.SrcNode(ch/nodes)*nodes+dst]
	enc.Int(int64(len(msgs)))
	for _, m := range msgs {
		if err := w.engines[dst].EncodeMessage(enc, m); err != nil {
			return err
		}
	}
	return nil
}

// encodeTail writes what follows the engines and channels in the world's
// image under the encoder's remap: access, stalled, the spent budgets and
// the client plane. Every key encodes it; no action leaves it alone for
// sure, and it is short.
func (w *World) encodeTail(enc *runtime.Encoder) {
	r := enc.Remap()
	nodes, blocks := w.cfg.Nodes, w.cfg.Blocks
	if r == nil {
		for _, a := range w.access {
			enc.Byte(byte(a))
		}
	} else {
		for n := 0; n < nodes; n++ {
			row := w.access[r.SrcNode(n)*blocks:]
			for b := 0; b < blocks; b++ {
				enc.Byte(byte(row[r.SrcBlock(b)]))
			}
		}
	}
	for n := range w.stalled {
		enc.Int(int64(r.MapBlock(w.stalled[r.SrcNode(n)])))
	}
	enc.Int(int64(w.drops))
	enc.Int(int64(w.dups))
	if w.pcs != nil {
		// The client plane pins node and block identities, so reduction
		// refuses it (buildReduction) and it is never written under a remap.
		for _, pc := range w.pcs {
			enc.Int(int64(pc))
		}
		for _, regs := range w.regs {
			enc.Int(int64(len(regs)))
			for _, v := range regs {
				enc.Int(v)
			}
		}
		for _, v := range w.cver {
			enc.Int(v)
		}
		for _, v := range w.cmem {
			enc.Int(v)
		}
	}
}

// decode restores a world from its canonical form.
func (cfg *Config) decode(key string) (*World, error) {
	w := newWorld(cfg)
	return w, cfg.decodeInto(w, []byte(key))
}

// decodeInto overwrites w — a world newWorld built for this configuration,
// whatever state it last held and however it was left — with the state key
// encodes. Every
// part of a world that the encoding covers is rewritten in place (engines'
// block states, variables and deferred queues, channels, access, stalled,
// spent budgets, the client plane), reusing the block records and arrays w
// already has; everything the encoding does not cover is reset to what a
// new world has: w runs its own engines again, the send error and a
// half-run handler's transitioned flags are cleared, and the sinks are
// Config.Obs's (none during Check). So a reused world is indistinguishable
// from decode's fresh one. key is read where it is, never copied.
//
// A damaged key is an error, never a panic: the decoder refuses short
// input, malformed integers, counts the remaining bytes could not hold and
// trailing bytes, and the indices the world is later read through (states,
// message block ids, stalled blocks, script positions) are range-checked.
// After an error w is unspecified but may be decoded into again.
func (cfg *Config) decodeInto(w *World, key []byte) error {
	d := &w.dec
	d.Reset(key)
	w.sendErr = nil
	copy(w.engines, w.owned)
	w.setObs(cfg.Obs)
	w.src, w.segEnds = key, w.segEnds[:0]
	for _, e := range w.engines {
		if err := e.DecodeState(d); err != nil {
			return err
		}
		w.segEnds = append(w.segEnds, d.Pos())
	}
	for ch := range w.channels {
		var err error
		if w.channels[ch], err = decodeChannel(d, w.engines[ch%cfg.Nodes], w.channels[ch]); err != nil {
			return err
		}
		w.segEnds = append(w.segEnds, d.Pos())
	}
	if err := w.decodeTail(d); err != nil {
		return err
	}
	if w.pcs != nil {
		for i := range w.pcs {
			w.pcs[i] = int(d.Int())
			if w.pcs[i] < 0 || w.pcs[i] > len(cfg.Client.program(i)) {
				return fmt.Errorf("mc: node %d at script position %d in encoding", i, w.pcs[i])
			}
		}
		for n := range w.regs {
			cnt := d.Count()
			w.regs[n] = w.regs[n][:0]
			for i := 0; i < cnt; i++ {
				w.regs[n] = append(w.regs[n], d.Int())
			}
		}
		for i := range w.cver {
			w.cver[i] = d.Int()
		}
		for i := range w.cmem {
			w.cmem[i] = d.Int()
		}
	}
	return d.Finish()
}

// decodeTail reads what encodeTail writes before the client plane:
// access, stalled and the spent budgets.
func (w *World) decodeTail(d *runtime.Decoder) error {
	for i := range w.access {
		w.access[i] = sema.AccessMode(d.Byte())
	}
	for i := range w.stalled {
		w.stalled[i] = int(d.Int())
		if w.stalled[i] < -1 || w.stalled[i] >= w.cfg.Blocks {
			return fmt.Errorf("mc: node %d stalled on block %d in encoding", i, w.stalled[i])
		}
	}
	w.drops = int(d.Int())
	w.dups = int(d.Int())
	return nil
}

// actKind classifies an action. Deliveries and faults act on a channel
// position; events and timeouts act on a (node, block).
type actKind uint8

const (
	actDeliver actKind = iota
	actDrop            // remove the message — lost by the network
	actDup             // insert a copy right behind the original
	actEvent
	actClient // the node's scripted client attempts its next operation
	actTimeout
)

// action is one outgoing transition from a state.
type action struct {
	kind     actKind
	from, to int
	idx      int // position within the channel (≤ EffectiveReorder for deliveries)
	node     int
	block    int
	event    Event
}

func (w *World) msgName(tag int) string {
	if sm := w.cfg.Proto.Sema(); tag >= 0 && tag < len(sm.Messages) {
		return sm.Messages[tag].Name
	}
	return fmt.Sprintf("msg%d", tag)
}

func (w *World) describe(a action) string {
	switch a.kind {
	case actDeliver:
		m := w.channels[a.from*w.cfg.Nodes+a.to][a.idx]
		pos := ""
		if a.idx > 0 {
			pos = fmt.Sprintf(" (overtaking %d)", a.idx)
		}
		return fmt.Sprintf("deliver %s blk%d node%d->node%d%s [dst state %s]",
			w.msgName(m.Tag), m.ID, a.from, a.to, pos, w.StateName(a.to, m.ID))
	case actDrop:
		m := w.channels[a.from*w.cfg.Nodes+a.to][a.idx]
		return fmt.Sprintf("DROP %s blk%d node%d->node%d (lost by network)",
			w.msgName(m.Tag), m.ID, a.from, a.to)
	case actDup:
		m := w.channels[a.from*w.cfg.Nodes+a.to][a.idx]
		return fmt.Sprintf("DUPLICATE %s blk%d node%d->node%d",
			w.msgName(m.Tag), m.ID, a.from, a.to)
	case actTimeout:
		return fmt.Sprintf("TIMEOUT blk%d at node%d [state %s]",
			a.block, a.node, w.StateName(a.node, a.block))
	case actClient:
		op := w.cfg.Client.program(a.node)[w.pcs[a.node]]
		return fmt.Sprintf("client %s blk%d at node%d [access %v]",
			clientOpNames[op.Kind], op.Addr, a.node, w.Access(a.node, op.Addr))
	}
	return fmt.Sprintf("event %s blk%d at node%d [state %s]",
		a.event.Name, a.block, a.node, w.StateName(a.node, a.block))
}

// actions enumerates every transition enabled in w. Order is a pure
// function of the world state: deliveries, then drops and dups (while
// their budgets last), then processor events, then timeouts — the
// determinism contract (worker-count-independent traces) depends on it.
func (w *World) actions() []action { return w.appendActions(nil) }

// appendActions appends the enabled transitions to out (a worker's reused
// buffer) and returns it.
func (w *World) appendActions(out []action) []action {
	for from := 0; from < w.cfg.Nodes; from++ {
		for to := 0; to < w.cfg.Nodes; to++ {
			ch := w.channels[from*w.cfg.Nodes+to]
			limit := w.cfg.Net.EffectiveReorder()
			if limit > len(ch)-1 {
				limit = len(ch) - 1
			}
			for i := 0; i <= limit; i++ {
				out = append(out, action{kind: actDeliver, from: from, to: to, idx: i})
			}
		}
	}
	// Faults target any in-flight position, not just the reorder window:
	// loss and duplication are independent of delivery order. Fixed
	// enumeration order (drop, dup) — action ordinals must be a pure function
	// of the world state.
	for _, f := range [...]struct {
		kind   actKind
		budget bool
	}{
		{actDrop, w.drops < w.cfg.Net.MaxDrops},
		{actDup, w.dups < w.cfg.Net.MaxDups},
	} {
		if !f.budget {
			continue
		}
		kind := f.kind
		for from := 0; from < w.cfg.Nodes; from++ {
			for to := 0; to < w.cfg.Nodes; to++ {
				for i := range w.channels[from*w.cfg.Nodes+to] {
					out = append(out, action{kind: kind, from: from, to: to, idx: i})
				}
			}
		}
	}
	if w.cfg.Events != nil {
		for n := 0; n < w.cfg.Nodes; n++ {
			if w.stalled[n] >= 0 {
				continue // single-issue: blocked on a fault until WakeUp
			}
			for b := 0; b < w.cfg.Blocks; b++ {
				for _, ev := range w.cfg.Events.Enabled(w, n, b) {
					out = append(out, action{kind: actEvent, node: n, block: b, event: ev})
				}
			}
		}
	}
	if w.cfg.Client != nil {
		for n := 0; n < w.cfg.Nodes; n++ {
			if w.stalled[n] < 0 && w.pcs[n] < len(w.cfg.Client.program(n)) {
				out = append(out, action{kind: actClient, node: n,
					block: w.cfg.Client.program(n)[w.pcs[n]].Addr})
			}
		}
	}
	if w.cfg.timeoutTag >= 0 && w.cfg.Net.Active() {
		for n := 0; n < w.cfg.Nodes; n++ {
			for b := 0; b < w.cfg.Blocks; b++ {
				if w.timeoutEnabled(n, b) {
					out = append(out, action{kind: actTimeout, node: n, block: b})
				}
			}
		}
	}
	return out
}

// timeoutEnabled reports whether the TIMEOUT pseudo-message may fire for
// (node, block): the block's current state declares an *explicit* TIMEOUT
// handler (a DEFAULT fallback is not a timer), and firing now cannot race
// progress that is already guaranteed — no message for this block is
// inbound to the node, and none of the node's own traffic for it is still
// in flight or parked in a deferred queue. In a fault-free run those
// conditions never hold simultaneously in a waiting state, so timeouts add
// zero transitions unless something was actually lost.
func (w *World) timeoutEnabled(node, block int) bool {
	st := w.engines[node].Blocks[block].State.State
	if w.cfg.Proto.IR.HandlerFunc[st][w.cfg.timeoutTag] == nil {
		return false
	}
	for ch, msgs := range w.channels {
		to := ch % w.cfg.Nodes
		for _, m := range msgs {
			if m.ID == block && (to == node || m.Src == node) {
				return false
			}
		}
	}
	for _, e := range w.engines {
		for _, b := range e.Blocks {
			if b.ID != block {
				continue
			}
			for _, m := range b.Deferred {
				if m.Src == node {
					return false
				}
			}
		}
	}
	return true
}

// removeAt pops the message at idx from a channel, in place: a world's
// channel arrays are its own (decodeInto and derive fill them, neither
// aliases another world's).
func (w *World) removeAt(ch, idx int) *runtime.Message {
	msgs := w.channels[ch]
	m := msgs[idx]
	copy(msgs[idx:], msgs[idx+1:])
	w.channels[ch] = msgs[:len(msgs)-1]
	return m
}

// apply executes the action, returning a protocol error if one occurred.
func (w *World) apply(a action) error {
	switch a.kind {
	case actDeliver:
		m := w.removeAt(a.from*w.cfg.Nodes+a.to, a.idx)
		if err := w.engines[a.to].Deliver(m); err != nil {
			return err
		}
		return w.sendErr
	case actDrop:
		m := w.removeAt(a.from*w.cfg.Nodes+a.to, a.idx)
		w.emitFault(obs.KindDrop, a.from, a.to, m)
		w.drops++
		return nil
	case actDup:
		ch := a.from*w.cfg.Nodes + a.to
		m := w.channels[ch][a.idx]
		// The copy is the same record (messages are immutable), and it goes
		// immediately behind the original: duplication alone must not
		// reorder the channel. Appending at the tail instead would let the
		// copy arrive behind arbitrarily many later messages — unbounded
		// reordering smuggled in through the dup budget, which no protocol
		// without per-message epochs can survive. Combining dup with a
		// reorder credit still lets the copy drift that far.
		w.channels[ch] = slices.Insert(w.channels[ch], a.idx+1, m)
		w.emitFault(obs.KindDup, a.from, a.to, m)
		w.dups++
		return nil
	case actTimeout:
		if err := w.engines[a.node].InjectEvent(w.cfg.timeoutTag, a.block); err != nil {
			return err
		}
		return w.sendErr
	case actClient:
		return w.clientStep(a.node)
	}
	if a.event.Stalls {
		w.stalled[a.node] = a.block
	}
	if err := w.engines[a.node].InjectEvent(a.event.Tag, a.block); err != nil {
		return err
	}
	return w.sendErr
}

// The bounds behind the "bounded channels and deferred queues" invariant: a
// channel holding more than channelCap messages, or a block's deferred queue
// more than queueCap, is a flood no bundled protocol produces at any checked
// shape, so reaching one is reported as a livelock.
const (
	channelCap = 12
	queueCap   = 8
)

// checkInvariants returns a violation message, or "".
func (w *World) checkInvariants() string {
	if w.cfg.CheckCoherence {
		if msg := w.incoherent(); msg != "" {
			return msg
		}
	}
	for ch, msgs := range w.channels {
		if len(msgs) > channelCap {
			return fmt.Sprintf("channel %d->%d exceeds %d messages",
				ch/w.cfg.Nodes, ch%w.cfg.Nodes, channelCap)
		}
	}
	for n, e := range w.engines {
		for _, b := range e.Blocks {
			if len(b.Deferred) > queueCap {
				return fmt.Sprintf("deferred queue for block %d on node %d exceeds %d", b.ID, n, queueCap)
			}
		}
	}
	return ""
}

// incoherent returns the single-writer/multiple-readers violation of the
// access map, or "".
func (w *World) incoherent() string {
	for b := 0; b < w.cfg.Blocks; b++ {
		if !w.coherent(b) {
			writers, readers := w.holders(b)
			return fmt.Sprintf("coherence violated on block %d: %d writers, %d readers", b, writers, readers)
		}
	}
	return ""
}

// coherent reports whether block b has one writer and no reader, or
// readers only.
func (w *World) coherent(b int) bool {
	writers, readers := w.holders(b)
	return writers == 0 || writers == 1 && readers == 0
}

// holders counts the nodes that may write block b and those that may only
// read it.
func (w *World) holders(b int) (writers, readers int) {
	for n := 0; n < w.cfg.Nodes; n++ {
		switch w.Access(n, b) {
		case sema.AccReadWrite:
			writers++
		case sema.AccReadOnly:
			readers++
		}
	}
	return writers, readers
}

// anyStalled reports whether some processor is stalled.
func (w *World) anyStalled() bool {
	for _, s := range w.stalled {
		if s >= 0 {
			return true
		}
	}
	return false
}

// networkEmpty reports whether no messages are in flight.
func (w *World) networkEmpty() bool {
	for _, ch := range w.channels {
		if len(ch) > 0 {
			return false
		}
	}
	return true
}

// engine returns the node whose engine apply(a) runs handlers on: the
// destination of a delivery, the node of an event, timeout or client step,
// and noEngine for the network faults, which only edit channels.
func (a *action) engine() int {
	switch a.kind {
	case actDeliver:
		return a.to
	case actDrop, actDup:
		return noEngine
	}
	return a.node
}

// noEngine is action.engine's answer for the network faults.
const noEngine = -1

// segRange is the key segments lo..hi-1: engine k is segment k, channel c
// segment Nodes+c (see World.src).
type segRange struct{ lo, hi int }

// changes returns the key segments applying a may change as at most three
// ranges, ascending and disjoint, in the array of buf (whose contents it
// drops). An action runs handlers on one engine, and a handler's only way
// out of its engine is to send from it; the faults edit the channel they
// name. So a may change its engine, that engine's outgoing row of channels
// — one range, the channels from a node being adjacent — and the channel it
// names. What else it changes (access, stalled, budgets, the client plane)
// lies in the tail, which every key encodes.
func (a *action) changes(nodes int, buf []segRange) []segRange {
	out := buf[:0]
	if e := a.engine(); e != noEngine {
		row := nodes + e*nodes
		out = append(out, segRange{e, e + 1}, segRange{row, row + nodes})
	}
	switch a.kind {
	case actDeliver, actDrop, actDup:
		out = withSegment(out, nodes+a.from*nodes+a.to)
	}
	return out
}

// withSegment adds segment k to the ascending, disjoint ranges rs.
func withSegment(rs []segRange, k int) []segRange {
	i := 0
	for i < len(rs) && rs[i].hi <= k {
		i++
	}
	if i < len(rs) && rs[i].lo <= k {
		return rs // already in
	}
	return slices.Insert(rs, i, segRange{k, k + 1})
}

// span returns key segments lo..hi-1 of w.src, in place (see World.src).
func (w *World) span(lo, hi int) []byte {
	start := 0
	if lo > 0 {
		start = w.segEnds[lo-1]
	}
	return w.src[start:w.segEnds[hi-1]]
}

// derive overwrites dst — a world newWorld built for this configuration,
// whatever it last held — with the state w.src encodes, ready for one action
// that runs handlers on engine touch (a node, or noEngine). w must be the
// world w.src was decoded into, untouched since. The tail (access, stalled,
// budgets, the client plane) is copied into dst's own arrays, and so are the
// channels, whose messages are immutable and shared. Engine touch alone is
// decoded from its segment into dst's own engine for that node, which is
// bound to dst, and the channels into it are decoded with it, so nothing it
// runs can reach a record of w; for every other node dst reads w's engine,
// shared read-only. That is sound because applying an action executes
// handlers on that one engine alone, and because the parent stays untouched
// until its last successor has been keyed (expandState applies the final
// action to the parent itself). A shared engine calls back into w if run, so
// a world derived for one node must never execute another's engine.
func (w *World) derive(dst *World, touch int) error {
	copy(dst.access, w.access)
	copy(dst.stalled, w.stalled)
	dst.drops, dst.dups = w.drops, w.dups
	dst.obsSink, dst.sendErr = nil, nil
	dst.src, dst.segEnds = w.src, w.segEnds
	if w.pcs != nil {
		copy(dst.pcs, w.pcs)
		copy(dst.cver, w.cver)
		copy(dst.cmem, w.cmem)
		for n, r := range w.regs {
			dst.regs[n] = append(dst.regs[n][:0], r...)
		}
	}
	copy(dst.engines, w.engines)
	nodes := w.cfg.Nodes
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if ch := from*nodes + to; to != touch {
				dst.channels[ch] = append(dst.channels[ch][:0], w.channels[ch]...)
			}
		}
	}
	if touch == noEngine {
		return nil
	}
	e, d := dst.owned[touch], &dst.dec
	e.SetObs(nil)
	dst.engines[touch] = e
	d.Reset(w.span(touch, touch+1))
	if err := e.DecodeState(d); err != nil {
		return err
	}
	for from := 0; from < nodes; from++ {
		ch := from*nodes + touch
		d.Reset(w.span(nodes+ch, nodes+ch+1))
		var err error
		if dst.channels[ch], err = decodeChannel(d, e, dst.channels[ch]); err != nil {
			return err
		}
	}
	return nil
}

// decodeChannel reads one channel's messages, built by the engine they are
// bound for, into the array of msgs.
func decodeChannel(d *runtime.Decoder, e *runtime.Engine, msgs []*runtime.Message) ([]*runtime.Message, error) {
	msgs = msgs[:0]
	for n := d.Count(); n > 0; n-- {
		m, err := e.DecodeMessage(d)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
	return msgs, d.Err()
}

// InitialWorld builds the machine's initial state (exported for benchmarks
// and tooling; Check builds its own). cfg defaults are filled in place.
func InitialWorld(cfg *Config) *World {
	cfg.normalize()
	return newWorld(cfg)
}

// Snapshot returns the world's canonical encoding — the visited-set key.
func (w *World) Snapshot() (string, error) { return w.encode() }

// Restore materializes a world from a Snapshot encoding. A key that is
// not one (truncated, damaged) is an error.
func (cfg *Config) Restore(key string) (*World, error) {
	cfg.normalize()
	w, err := cfg.decode(key)
	if err != nil {
		return nil, fmt.Errorf("mc: restore: %w", err)
	}
	return w, nil
}

// Clone returns an independent copy of the world: Restore of its Snapshot,
// so it fails where Snapshot does.
func (w *World) Clone() (*World, error) {
	key, err := w.encode()
	if err != nil {
		return nil, err
	}
	return w.cfg.decode(key)
}
