package mc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teapot/internal/obs"
	"teapot/internal/runtime"
)

// Check runs the breadth-first exploration.
//
// The search is layer-synchronous: all states at depth d are expanded —
// concurrently, by cfg.Workers goroutines — before any state at depth d+1,
// which preserves the BFS invariant (counterexample traces are
// shortest-path) and makes every reported figure deterministic. A
// successor whose handler run the transition memo holds — most of them,
// once a run is past its first layers — is replayed: its key is written
// from the state's key, the memoized segment and the run's journal, with
// no handler run (replay); a drop or a dup is spliced from the state's key
// the same way. Both read the state through its key's segment facts
// (facts.go), which also enumerate its actions when the generator vouches
// for it, so a state is decoded — once, into a world its worker keeps for
// the whole run — only when an action must run a handler. Such a
// successor is derived into the worker's one scratch world — re-decoding
// only the engine its action runs on — plus one action (the final action
// is applied to the decoded world in place), never a new World (see
// worker). Successors are claimed in the worker's buffer and committed at
// the layer's barrier (visitedTable.commit). Violations found while a
// layer expands are collected, the layer is finished, and the one the
// sequential scan would have hit first — smallest (frontier position,
// action ordinal) — is reported, with its trace re-derived by replaying the
// compact parent chain from the initial state. States, Transitions,
// MaxDepth, the violation kind, and the trace are identical for any worker
// count.
func Check(cfg Config) (*Result, error) { return check(cfg, newVisited(), nil, nil) }

// check is Check over the visited table, the transition memo and the remap
// table it is handed (empty, over vt; tests hand in a table with its limits
// lowered, and read them all afterwards). A nil memo or remap table is made
// if the run uses one.
func check(cfg Config, vt *visitedTable, mm *memo, rt *remapTable) (*Result, error) {
	cfg.normalize()
	// Exploration never attaches Config.Obs to the worlds it expands: that
	// sink is the replay path's (see ReplaySteps). Coverage accounting has
	// its own per-worker wiring below.
	cfg.Obs = nil
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	red, note, err := buildReduction(&cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Workers: cfg.Workers, SymmetryGroup: 1, SymmetryNote: note}
	if red != nil {
		res.SymmetryGroup = len(red.group)
		if red.table = rt; rt == nil {
			red.table = newRemapTable(vt, len(red.group))
		}
	}
	bypass := memoBypass(&cfg)
	var use *memo // nil when bypassed
	if bypass == "" {
		if use = mm; use == nil {
			use = newMemo(vt)
		}
		use.useFacts(&cfg)
	}

	workers := make([]worker, cfg.Workers)
	// The first worker's parent world holds the initial state until its
	// first decode.
	workers[0].worlds(&cfg)
	root, err := workers[0].keys.key(workers[0].parent, red, nil)
	if err != nil {
		return nil, err
	}
	// The pieces the root's key remapped are not the first layer's: the
	// table fills only what a layer's successors miss.
	workers[0].keys.pend.reset()
	layer, err := vt.addRoot(root, workers)
	if err != nil {
		return nil, err
	}
	if use != nil {
		if err := use.absorb(workers, layer); err != nil {
			return nil, err
		}
	}
	res.PeakFrontier = 1

	for depth := 0; len(layer) > 0; depth++ {
		res.MaxDepth = depth
		out, err := expandLayer(&cfg, vt, use, red, layer, workers)
		if err != nil {
			return nil, err
		}
		res.Transitions += int(out.transitions)
		res.Decodes += out.decodes
		res.KeyBytes += out.keyBytes
		res.KeyBytesEncoded += out.keyEncoded
		next, err := vt.commit(layer, workers)
		if err != nil {
			return nil, err
		}
		if use != nil {
			use.runs += out.memoRuns
			use.hits += out.memoHits
			if err := use.absorb(workers, next); err != nil {
				return nil, err
			}
		}
		if red != nil {
			if err := red.absorb(workers); err != nil {
				return nil, err
			}
		}
		if len(next) > res.PeakFrontier {
			res.PeakFrontier = len(next)
		}
		if cfg.Progress != nil {
			// Reported from the driver goroutine, after the barrier: the
			// snapshot reads no state a worker could still be touching.
			cfg.Progress(ProgressInfo{
				Depth:         depth,
				Frontier:      len(next),
				States:        vt.states(),
				Transitions:   int64(res.Transitions),
				Elapsed:       time.Since(start),
				VisitedBytes:  vt.bytes(),
				SymmetryGroup: res.SymmetryGroup,
			})
		}
		if out.cand != nil {
			v, err := workers[0].buildViolation(&cfg, vt, red, layer[out.cand.pos], out.cand)
			if err != nil {
				return nil, err
			}
			res.Violation = v
			break
		}
		layer = next
		if cfg.MaxStates > 0 && vt.states() >= cfg.MaxStates {
			res.Violation = &Violation{Kind: "state-limit",
				Msg: fmt.Sprintf("exploration stopped at %d states", vt.states())}
			break
		}
	}

	res.States = vt.states()
	res.VisitedBytes = vt.bytes()
	res.Segments, res.SegmentBytes = len(vt.intern.refs), vt.intern.size
	if red != nil {
		res.RemapPieces, res.RemapBytes = red.table.stats()
	}
	res.Memo = MemoStats{Bypass: bypass}
	if use != nil {
		res.Memo = use.stats()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// candidate is a violation observed during layer expansion, positioned so
// the deterministic minimum can be selected at the barrier.
type candidate struct {
	kind string
	msg  string
	pos  int32 // position of the expanded state within its layer
	ord  int32 // ordinal of the violating action, -1 for deadlock
}

func (c *candidate) before(o *candidate) bool {
	if c.pos != o.pos {
		return c.pos < o.pos
	}
	return c.ord < o.ord
}

// layerOut is what expanding (part of) a layer produced; per-worker
// outputs are merged at the barrier so workers share nothing while
// expanding.
type layerOut struct {
	cand        *candidate
	transitions int64
	decodes     int64
	// Key bytes built and key bytes encoded (see Result.KeyBytes).
	keyBytes, keyEncoded int64
	// Handler runs looked up in the memo, and how many it served.
	memoRuns, memoHits int64
}

func (o *layerOut) take(c *candidate) {
	if o.cand == nil || c.before(o.cand) {
		o.cand = c
	}
}

// worker is everything one expanding goroutine reuses from state to state
// for the whole of a Check, so that expanding a state allocates nothing: the
// parent world a state is decoded into (decodeInto), or, until it must
// be, whose key, segment ends and tail the memo's view holds, the scratch world
// every successor but a state's last is derived into (derive), the region
// every record of either is built in (see decode), the action buffer, and
// the key buffers. Reuse is sound because each of them is dead before it is
// overwritten: a successor is finished with once its key is claimed (claim
// copies the bytes it keeps), the parent is untouched until its last action
// and finished with after it, and the Terminal and EventGen hooks see a
// world only for the length of the call. The per-layer fields (layerOut,
// cov, err) are reset by expandLayer, and the barrier buffers (claims, the
// memo's misses, the key scratch's pend) by the tables that absorb them.
type worker struct {
	parent, succ *World
	region       runtime.Region
	acts         []action
	keys         keyScratch // successor keys are built here, never on the heap
	src          []byte     // the key of the state being expanded, spelled out of its segments
	from         []uint32   // and those segments' ids
	*memoScratch            // the memo's, when the run has one

	claims pendIndex // this layer's claims, for the visited store's barrier

	layerOut
	cov *obs.Coverage // this layer's coverage, merged at the barrier
	err error
}

// inlineLayer is the layer length below which fanning out costs more than
// it buys: starting goroutines, allocating their coverage sets and merging
// at the barrier is fixed work per layer, and a few dozen states expand in
// microseconds.
const inlineLayer = 64

// expandLayer expands every state of the layer, fanning out over up to
// len(workers) goroutines pulling positions from a shared cursor — or, for
// a layer shorter than inlineLayer, on the calling goroutine alone. Which of
// the two ran cannot be told from the result.
func expandLayer(cfg *Config, vt *visitedTable, mm *memo, red *reduction, layer []int32, workers []worker) (*layerOut, error) {
	if len(workers) > len(layer) {
		workers = workers[:len(layer)]
	}
	for i := range workers {
		wk := &workers[i]
		wk.layerOut, wk.cov, wk.err = layerOut{}, nil, nil
	}

	if len(workers) <= 1 || len(layer) < inlineLayer {
		wk := &workers[0]
		wk.cov = cfg.Coverage // accumulate in place, nothing to merge
		for pos := range layer {
			if err := wk.expandState(cfg, vt, mm, red, layer, int32(pos)); err != nil {
				return nil, err
			}
		}
		return &wk.layerOut, nil
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for i := range workers {
		if cfg.Coverage != nil {
			workers[i].cov = obs.NewCoverage()
		}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for {
				pos := cursor.Add(1) - 1
				if pos >= int64(len(layer)) {
					return
				}
				if wk.err = wk.expandState(cfg, vt, mm, red, layer, int32(pos)); wk.err != nil {
					cursor.Store(int64(len(layer))) // the layer is lost: stop the others
					return
				}
			}
		}(&workers[i])
	}
	wg.Wait()
	merged := &layerOut{}
	for i := range workers {
		wk := &workers[i]
		if wk.err != nil {
			return nil, wk.err
		}
		merged.transitions += wk.transitions
		merged.decodes += wk.decodes
		merged.keyBytes += wk.keyBytes
		merged.keyEncoded += wk.keyEncoded
		merged.memoRuns += wk.memoRuns
		merged.memoHits += wk.memoHits
		if cfg.Coverage != nil {
			// Set union with count addition commutes, so merging in worker
			// order (or any order) accumulates identical coverage.
			cfg.Coverage.Merge(wk.cov)
		}
		if wk.cand != nil {
			merged.take(wk.cand)
		}
	}
	return merged, nil
}

// expandState enumerates one state's actions and claims every successor.
// With a memo (nil: bypassed) the state's segment facts are loaded into the
// worker's view (facts.go): a handler run the memo holds is replayed
// (replay), and so are a drop and a dup, as runs of no handler; a run it
// does not hold is journaled and buffered for the barrier. When the view
// enumerates the actions too, the state is decoded into the worker's
// parent world only when an action must run a handler; otherwise first.
// Such an action is derived into the worker's scratch world (the last runs
// on the parent itself), which decodes only the engine it runs on (see
// World.derive). With symmetry reduction active every successor is
// canonicalized before the claim; the pieces the remap table lacked are
// buffered for the barrier too.
func (wk *worker) expandState(cfg *Config, vt *visitedTable, mm *memo, red *reduction, layer []int32, pos int32) error {
	if wk.src == nil {
		wk.src, wk.from = make([]byte, 0, 256), make([]uint32, 0, 2*cfg.Nodes+1)
	}
	wk.src, wk.from = vt.expand(wk.src[:0], wk.from[:0], layer[pos])
	wk.worlds(cfg)
	w := wk.parent
	if mm != nil && wk.memoScratch == nil {
		wk.memoScratch = new(memoScratch)
	}
	viewed := mm != nil && wk.view.load(mm, w, wk.src, wk.from)
	decoded := !viewed || !mm.enumerate
	if decoded {
		if _, err := wk.decode(cfg, wk.src); err != nil {
			return err
		}
	} else {
		// As decode would: nothing the previous state's remaps built in
		// the region is live.
		wk.region.Reset()
	}
	// Terminal-state judgment (litmus runs): a state where every script has
	// finished, nothing is stalled, and the network has drained is a final
	// outcome; a judging hook that rejects it makes the state itself the
	// violation (ord -1, like deadlocks — the trace leads to the state).
	if cfg.Terminal != nil && w.networkEmpty() && !w.anyStalled() && w.ClientDone() {
		if msg := cfg.Terminal(w); msg != "" {
			wk.take(&candidate{kind: "litmus", msg: msg, pos: pos, ord: -1})
		}
	}
	if decoded {
		wk.acts = w.appendActions(wk.acts[:0])
	} else {
		wk.acts = w.appendFrom(wk.acts[:0], &wk.view)
	}
	if len(wk.acts) == 0 {
		// No action means no message in flight: a message enables its
		// delivery.
		if w.anyStalled() {
			// Described by buildViolation, from the world its trace reaches.
			wk.take(&candidate{kind: "deadlock", pos: pos, ord: -1})
		}
		return nil
	}
	for i := range wk.acts {
		a := &wk.acts[i]
		wk.transitions++
		var k memoKey
		memoize := false
		if viewed {
			// A fault replays the empty run: no lookup. Any other action
			// the memo does not key is decoded and run below.
			run, hit := memoRun{}, a.kind == actDrop || a.kind == actDup
			if k, memoize = memoKeyFor(a, wk.from, &wk.view); memoize {
				wk.memoRuns++
				run, hit = mm.lookup(&k)
			}
			if hit {
				// Replayed, or run below only when the replay breaks an
				// invariant, for the message.
				kb, err := wk.replay(cfg, w, red, a, run, pos, int32(i))
				if err != nil {
					return err
				}
				if kb != nil {
					if memoize {
						wk.memoHits++
					}
					if err := wk.claim(vt, kb, pos, int32(i)); err != nil {
						return err
					}
					continue
				}
				memoize = false
			}
		}
		if !decoded {
			if _, err := wk.decode(cfg, wk.src); err != nil {
				return err
			}
			decoded = true
		}
		wa, err := w.branch(*a, i == len(wk.acts)-1, wk.cov, wk.succ)
		if err != nil {
			return fmt.Errorf("mc: decode: %w", err)
		}
		if memoize {
			wk.rec.reset()
			wa.rec = &wk.rec
		}
		kind, msg := wa.applyChecked(*a)
		wa.rec = nil
		if kind != "" {
			wk.take(&candidate{kind: kind, msg: msg, pos: pos, ord: int32(i)})
			continue
		}
		kb, err := wk.keys.plain(wa, a, nil, wk.from)
		if err != nil {
			return fmt.Errorf("mc: encode: %w", err)
		}
		if memoize && wk.rec.err == nil {
			wk.misses.addMiss(mm, &k, pos, int32(i), kb.segment(a.engine()), wk.rec.jrn)
		}
		if red != nil {
			if err := red.canonicalize(&wk.keys, pos, int32(i)); err != nil {
				return fmt.Errorf("mc: encode: %w", err)
			}
		}
		if err := wk.claim(vt, kb, pos, int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// claim claims the successor key kb holds, reached from layer position pos
// by its ord-th action, counting its bytes.
func (wk *worker) claim(vt *visitedTable, kb *keyBuf, pos, ord int32) error {
	wk.keyBytes += int64(len(kb.Bytes()))
	wk.keyEncoded += int64(wk.keys.encoded)
	return vt.claim(&wk.claims, kb, pos, ord)
}

// replay writes into the worker's key scratch the successor key of action
// a, the (pos, ord) transition, which runs a handler the memo holds or is
// a drop or a dup (run the empty run), from w, the state being expanded,
// left untouched: its key, segment ends and tail, and the worker's view of
// it. The key is written straight from w's key, the memoized segment and
// the journal, with only the successor's tail built, in the scratch world,
// and then canonicalized from its segments under reduction. It returns nil
// when the successor breaks an invariant: the caller runs the action for
// the violation's message.
func (wk *worker) replay(cfg *Config, w *World, red *reduction, a *action, run memoRun, pos, ord int32) (*keyBuf, error) {
	h := &wk.hit
	if h.sends == nil {
		buf := make([]int, cfg.Nodes+8) // with room for h.access
		h.sends, h.access = buf[:cfg.Nodes], buf[cfg.Nodes:cfg.Nodes]
	}
	h.memoRun, h.parent, h.view, h.a, h.touch, h.named = run, w, &wk.view, a, a.engine(), -1
	switch a.kind {
	case actDeliver, actDrop, actDup:
		h.named = a.from*cfg.Nodes + a.to
	}
	succ := wk.succ
	w.copyTail(succ)
	succ.src, succ.segEnds = w.src, w.segEnds
	h.replayTail(succ)
	if !h.holds(succ) {
		return nil, nil
	}
	kb, err := wk.keys.plain(succ, a, h, wk.from)
	if err == nil && red != nil {
		err = red.canonicalize(&wk.keys, pos, ord)
	}
	if err != nil {
		return nil, fmt.Errorf("mc: encode: %w", err)
	}
	return kb, nil
}

// decode empties the worker's region and decodes key into its parent world
// (built, with the scratch successor, on first use), in that order: the
// region holds the previous state's records, and the decode that follows
// overwrites or abandons every reference to them (runtime.Region has the
// rule). key must stay where it is until the state's last successor has
// been keyed (World.src): expandState spells the state's key out into the
// worker's src, which nothing else writes.
func (wk *worker) decode(cfg *Config, key []byte) (*World, error) {
	wk.worlds(cfg)
	wk.region.Reset()
	if err := cfg.decodeInto(wk.parent, key); err != nil {
		return nil, fmt.Errorf("mc: decode: %w", err)
	}
	wk.decodes++
	return wk.parent, nil
}

// worlds builds the worker's parent and scratch worlds on first use, their
// engines building in its region, and lends the scratch world to its key
// scratch to remap segments in (see remapper).
func (wk *worker) worlds(cfg *Config) {
	if wk.parent != nil {
		return
	}
	wk.parent, wk.succ = newWorld(cfg), newWorld(cfg)
	for n := range wk.parent.owned {
		wk.parent.owned[n].SetRegion(&wk.region)
		wk.succ.owned[n].SetRegion(&wk.region)
	}
	wk.keys.remap.w, wk.keys.remap.region = wk.succ, &wk.region
}

// branch returns the world action a is to be applied to: w itself for the
// state's last action, otherwise scratch derived from w for the engine a
// runs on (see World.derive). With cov set, the action's coverage is wired
// up: handler-level coverage flows from the event stream of that one engine
// (the others may be shared with w and are left alone), and a reordered
// delivery, for which no event kind exists, is recorded at the action level.
func (w *World) branch(a action, last bool, cov *obs.Coverage, scratch *World) (*World, error) {
	wa := w
	if !last {
		wa = scratch
		if err := w.derive(wa, a.engine()); err != nil {
			return nil, err
		}
	}
	if cov != nil {
		wa.obsSink = cov
		if n := a.engine(); n != noEngine {
			wa.engines[n].SetObs(cov)
		}
		if a.kind == actDeliver && a.idx > 0 {
			cov.FaultSite(obs.FaultActionReorder,
				int32(wa.channels[a.from*w.cfg.Nodes+a.to][a.idx].Tag))
		}
	}
	return wa, nil
}

// applyChecked applies a and returns the violation the successor is, if
// any: kind "protocol-error" with the error apply returned, or "invariant"
// with the invariant it breaks. kind is "" for a sound successor.
func (w *World) applyChecked(a action) (kind, msg string) {
	if err := w.apply(a); err != nil {
		return "protocol-error", err.Error()
	}
	if msg := w.checkInvariants(); msg != "" {
		return "invariant", msg
	}
	return "", ""
}

// buildViolation re-derives the counterexample trace to state — the one
// the candidate was found at — by one replay from the initial state along
// the stored parent chain, the same with or without symmetry reduction. At
// each state of the chain the world the trace has reached, in original
// coordinates, is decoded into wk's parent world and its successors are
// derived into wk's scratch world in action order, as expandState derives
// them; the step taken is the first whose successor is no violation and has
// the next chain state's stored key (canonical under reduction, so the step
// lands in that state's orbit). Without reduction that is the transition
// the chain recorded: claims keep the smallest ordinal. At the violating
// state the step taken is the first that fails with the candidate's kind,
// and the message is the one it fails with; a deadlock or a rejected
// terminal state is the state itself. Steps are described against the
// pre-action world.
func (wk *worker) buildViolation(cfg *Config, vt *visitedTable, red *reduction, state int32, c *candidate) (*Violation, error) {
	var chain []int32 // arena indices from the root to state
	for idx := state; idx >= 0; idx = vt.parent(idx) {
		chain = append(chain, idx)
	}
	slices.Reverse(chain)
	key, err := newWorld(cfg).encode()
	if err != nil {
		return nil, err
	}
	// cur is the key of the state the trace has reached, next the plain
	// key of a successor tried: canonicalizing a successor remaps in the
	// scratch world it was derived into (remapper), and buffers what it
	// remaps in wk's pendIndex, which no barrier absorbs after the last.
	cur, next := []byte(key), []byte(nil)
	v := &Violation{Kind: c.kind, Msg: c.msg}
	for k := 1; ; k++ {
		w, err := wk.decode(cfg, cur)
		if err != nil {
			return nil, err
		}
		final := k == len(chain)
		if final && c.ord < 0 {
			if c.kind == "deadlock" {
				v.Msg, v.Waits = describeStall(w), waitsFor(w, v.Steps)
			}
			return v, nil
		}
		wk.acts = w.appendActions(wk.acts[:0])
		taken := -1
		for i := 0; i < len(wk.acts) && taken < 0; i++ {
			succ, err := w.branch(wk.acts[i], false, nil, wk.succ)
			if err != nil {
				return nil, fmt.Errorf("mc: decode: %w", err)
			}
			kind, msg := succ.applyChecked(wk.acts[i])
			switch {
			case final:
				if kind == c.kind {
					taken, v.Msg = i, msg
				}
			case kind == "":
				sk, err := wk.keys.plain(succ, &wk.acts[i], nil, nil)
				if err == nil && red != nil {
					next = append(next[:0], sk.Bytes()...)
					err = red.canonicalize(&wk.keys, 0, 0)
				}
				if err != nil {
					return nil, fmt.Errorf("mc: encode: %w", err)
				}
				if vt.equal(chain[k], sk) {
					taken = i
					if red == nil {
						next = append(next[:0], sk.Bytes()...)
					}
					cur, next = next, cur
				}
			}
		}
		if taken < 0 {
			return nil, fmt.Errorf("mc: trace replay diverged at step %d", k)
		}
		v.Trace = append(v.Trace, w.describe(wk.acts[taken]))
		v.Steps = append(v.Steps, w.step(wk.acts[taken]))
		if final {
			return v, nil
		}
	}
}

// waitsFor explains a deadlock in w, reached by steps: one line per stalled
// (node, block) naming the state the block sits in, the messages that state
// has handlers for — a Teapot state is a guard, so they are what it waits
// for (a DEFAULT handler is not named) — and the trace's drops of messages
// about the block to or from the node.
func waitsFor(w *World, steps []Step) []string {
	var out []string
	for n, b := range w.stalled {
		if b < 0 {
			continue
		}
		st := w.engines[n].Blocks[b].State.State
		var handles []string
		for tag, f := range w.cfg.Proto.IR.HandlerFunc[st] {
			if f != nil {
				handles = append(handles, w.msgName(tag))
			}
		}
		line := fmt.Sprintf("node %d block %d in %s handles %s", n, b, w.StateName(n, b), strings.Join(handles, ", "))
		sep := "; "
		for i, s := range steps {
			if s.Kind == "drop" && s.Block == b && (s.From == n || s.To == n) {
				line += fmt.Sprintf("%s%s %d->%d lost at step %d", sep, s.Msg, s.From, s.To, i+1)
				sep = ", "
			}
		}
		out = append(out, line)
	}
	return out
}

// describeStall renders a deadlock. When messages were dropped on the path
// here it says so: a stall behind an empty network with spent drop budget
// is (almost always) a lost message the protocol has no TIMEOUT recovery
// for, which deserves a different diagnosis than a genuine protocol
// deadlock reachable on a perfect network.
func describeStall(w *World) string {
	var stuck []string
	for n, b := range w.stalled {
		if b >= 0 {
			stuck = append(stuck, fmt.Sprintf("node %d stalled on block %d (state %s)",
				n, b, w.StateName(n, b)))
		}
	}
	sort.Strings(stuck)
	prefix := "network empty, "
	if w.drops > 0 {
		prefix = fmt.Sprintf("network empty after %d dropped message(s) — a lost message with no TIMEOUT recovery, not a fault-free protocol deadlock; ", w.drops)
	}
	return prefix + strings.Join(stuck, "; ")
}
