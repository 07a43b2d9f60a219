package mc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// The transition memo: expanding a state by lookup.
//
// A handler sees the world only through runtime.Machine, and of what
// Machine offers only HomeNode answers, with a function of the
// configuration. Support routines see their runtime.Ctx: the engine, the
// block and the message. So what node n's engine does on one input — a
// delivered message, a processor event, a timeout — is a function of n, the
// engine's key segment and the input, and its effect on the world is the
// engine's successor segment plus the sequence of Machine calls it made: its
// journal (Send with the message's encoding, AccessChange, RecvData,
// WakeUp; Print has no effect).
//
// The first run of a (node, segment, input) records both. Every later one
// replays them: the successor key is written from the parent's key, the
// memoized segment and the journal (memoHit), with no engine decoded, no
// handler run and no engine encoded — with or without symmetry reduction,
// which canonicalizes the key from its segments and so needs no world
// (reduction.canonicalize).
//
// The key names the node, because segment ids are one id space for every
// position and a home and a cache, or two caches, can hold the same bytes
// and still act differently. A delivery's input is the delivered message,
// by its id (facts.go), wherever it lies; an event or timeout's is its tag
// and block. Handlers that fail are never memoized, and neither are runs
// whose successor breaks an invariant.
//
// The memo is written only at layer barriers, in commit order — misses are
// buffered per worker (pendBuf) and merged by (parent position, action
// ordinal) — and read without a lock while a layer expands, as the intern
// table is. So which transitions hit, and what the memo holds, are the same
// for any worker count. Its entries lie in an arena, located by a slots
// table (table.go).
//
// Runs that record coverage bypass it (coverage needs the handlers' event
// stream), and so do runs with a scripted client, whose Send stamps data
// values from a memory the key does not name, and protocols whose support
// module does not vouch that every routine they declare reads only its Ctx
// (LocalSupport). memoBypass says which.

const (
	memoFirstChunk = 1 << 10 // the arena's chunk capacities double from here
	memoMaxChunks  = 1 << 12 // what a slot's 32-bit locator can address
	memoMinSlots   = 64
)

// Journal operations: a byte, then the operands as uvarints.
const (
	jSend   = iota // destination, message length, message encoding
	jAccess        // block, mode
	jRecv          // block, mode
	jWake          // block
)

// memoKey names one handler run (see the package comment above): the kind
// of action, the node whose engine runs, that engine's segment id in the
// state's key, and the input — a delivery's message id; an event's or a
// timeout's tag and block.
type memoKey struct{ kind, node, seg, in0, in1 uint32 }

// memoKeyFor returns the key of the handler run action a makes in the
// state whose segment ids are ids and whose facts v holds, and whether a
// runs handlers at all — the network faults do not, and a client step is
// never memoized (the client plane bypasses the memo).
func memoKeyFor(a *action, ids []uint32, v *view) (memoKey, bool) {
	switch a.kind {
	case actDeliver:
		id, _, _ := v.message(a)
		return memoKey{uint32(a.kind), uint32(a.to), ids[a.to], id, 0}, true
	case actEvent, actTimeout:
		return memoKey{uint32(a.kind), uint32(a.node), ids[a.node], uint32(a.event.Tag), uint32(a.block)}, true
	}
	return memoKey{}, false
}

func (k *memoKey) hash() uint64 {
	return fold(fold(fpSeed^(uint64(k.seg)<<32|uint64(k.node)<<8|uint64(k.kind)), fpMul)^
		(uint64(k.in1)<<32|uint64(k.in0)), fpFin)
}

// appendTo appends k's stored form, its fields as uvarints, to b.
func (k *memoKey) appendTo(b []byte) []byte {
	for _, f := range [...]uint32{k.kind, k.node, k.seg, k.in0, k.in1} {
		b = binary.AppendUvarint(b, uint64(f))
	}
	return b
}

// memo is the transition memo of one Check. An entry is a key's stored
// form, the engine's successor segment — uvarint id<<1|1 when the visited
// store has interned it (segs), else uvarint len<<1 and the bytes — and the
// length-prefixed journal. A slot holds the tag of the key's hash above the
// entry's locator + 1, which fits 32 bits: with memoMaxChunks chunks only
// the last chunk's last byte has locator 2³²−1, and an entry is longer than
// a byte. The arena also holds the segment facts, and the table the
// message ids (facts).
type memo struct {
	segs  *visitedTable
	arena arena
	slots slots
	// runs counts the handler runs looked up, hits those the memo served.
	runs, hits int64
	ent        []byte // insert's scratch
	facts
}

func newMemo(segs *visitedTable) *memo {
	return &memo{segs: segs, arena: arena{first: memoFirstChunk, size: arenaChunk, most: memoMaxChunks},
		slots: slots{first: memoMinSlots}}
}

// MemoStats is what Result reports of the transition memo.
type MemoStats struct {
	// Bypass says why the run did not use the memo ("" when it did).
	Bypass string
	// Entries is how many handler runs the memo holds, and Bytes what its
	// chunks and slot table retain, the segment facts and message ids
	// included.
	Entries int
	Bytes   int64
	// Runs counts the handler runs the checker looked up; Hits how many of
	// them it replayed instead of running. The same for any worker count.
	Runs, Hits int64
}

// stats reports the memo.
func (m *memo) stats() MemoStats {
	return MemoStats{Entries: m.slots.used - m.messages, Runs: m.runs, Hits: m.hits,
		Bytes: m.slots.bytes() + m.arena.bytes() + int64(cap(m.at))*4}
}

// LocalSupport is implemented by support modules that vouch their routines
// read nothing but what a call hands them — its runtime.Ctx and its
// arguments — and act only through them, so that what a handler does is a
// function of its engine's state and its input. The checker replays handler
// runs from the memo only for a protocol every declared routine of which is
// in LocalRoutines. Like runtime.SymmetryDecl it is a vouch, not a proof.
type LocalSupport interface {
	// LocalRoutines lists routine names (as called from protocol text)
	// that read only their Ctx and arguments.
	LocalRoutines() []string
}

// memoBypass returns why cfg must run without the memo, or "".
func memoBypass(cfg *Config) string {
	switch {
	case cfg.Coverage != nil:
		return "coverage is recorded, which needs every handler's events"
	case cfg.Client != nil:
		return "a scripted client stamps sent data from its own memory"
	}
	sp := cfg.Proto.Sema()
	if len(sp.ModConsts) > 0 {
		return fmt.Sprintf("module constant %s is not vouched local", sp.ModConsts[0].Name)
	}
	var declared []string
	for name, f := range sp.Funcs {
		if f.Builtin == sema.BNone {
			declared = append(declared, name)
		}
	}
	slices.Sort(declared)
	var local []string
	if decl, ok := cfg.Support.(LocalSupport); ok {
		local = decl.LocalRoutines()
	}
	for _, name := range declared {
		if !slices.Contains(local, name) {
			return fmt.Sprintf("support routine %s is not vouched local", name)
		}
	}
	return ""
}

// memoRun is a memoized handler run: the successor's engine segment, its
// intern id when interned is set, and the journal.
type memoRun struct {
	seg, jrn []byte
	id       uint32
	interned bool
}

// lookup returns the memoized run k names. Workers call it while a layer
// expands: the memo, and the intern table it refers to, are written only at
// the barrier.
func (m *memo) lookup(k *memoKey) (run memoRun, ok bool) {
	var buf [5 * binary.MaxVarintLen32]byte
	stored := k.appendTo(buf[:0])
	tag := uint32(k.hash())
	for loc, i := m.slots.find(tag, int(tag)); loc != 0; loc, i = m.slots.find(tag, i) {
		if ent := m.arena.at(uint64(loc - 1)); len(ent) >= len(stored) && string(ent[:len(stored)]) == string(stored) {
			b := ent[len(stored):]
			v, w := binary.Uvarint(b)
			if v&1 != 0 {
				run.id, run.interned = uint32(v>>1), true
				run.seg, b = m.segs.intern.at(run.id), b[w:]
			} else {
				n := int(v >> 1)
				run.seg, b = b[w:w+n], b[w+n:]
			}
			run.jrn, _ = lenPrefixed(b)
			return run, true
		}
	}
	return run, false
}

// splitEntry splits the entry at the front of b into its key, the
// reference to its segment (as stored: see memo) and its journal.
func splitEntry(b []byte) (k memoKey, seg, jrn, rest []byte) {
	for _, f := range [...]*uint32{&k.kind, &k.node, &k.seg, &k.in0, &k.in1} {
		v, w := binary.Uvarint(b)
		*f, b = uint32(v), b[w:]
	}
	v, n := binary.Uvarint(b)
	if v&1 == 0 {
		n += int(v >> 1)
	}
	seg, rest = b[:n], b[n:]
	jrn, rest = lenPrefixed(rest)
	return k, seg, jrn, rest
}

// lenPrefixed splits a uvarint-length-prefixed field off the front of b.
func lenPrefixed(b []byte) (field, rest []byte) {
	n, w := binary.Uvarint(b)
	return b[w : w+int(n)], b[w+int(n):]
}

// insert adds the run k names — seg is its successor segment's reference,
// as an entry holds it (see memo), and jrn its journal — unless k is there
// already. A memo that has run out of locators stays as it is: the checker
// runs what it cannot look up.
func (m *memo) insert(k *memoKey, seg, jrn []byte) {
	if _, ok := m.lookup(k); ok {
		return
	}
	ent := k.appendTo(m.ent[:0])
	if v, w := binary.Uvarint(seg); v&1 == 0 {
		ent = m.appendSegment(ent, seg[w:]) // interned at this barrier, perhaps
	} else {
		ent = append(ent, seg...)
	}
	ent = append(binary.AppendUvarint(ent, uint64(len(jrn))), jrn...)
	m.ent = ent
	if loc, ok := m.arena.add(ent); ok {
		m.slots.add(uint32(k.hash()), uint32(loc+1))
	}
}

// appendSegment appends to b the reference to segment seg an entry holds:
// its id if the visited store has interned it, else its bytes.
func (m *memo) appendSegment(b, seg []byte) []byte {
	if id, ok := m.segs.lookup(seg); ok {
		return binary.AppendUvarint(b, uint64(id)<<1|1)
	}
	return append(binary.AppendUvarint(b, uint64(len(seg))<<1), seg...)
}

// memoScratch is what a worker keeps for the memo: the journal of a
// handler run to be memoized, the memoized run being replayed, and this
// layer's runs, for the memo at the barrier.
type memoScratch struct {
	rec    recorder
	hit    memoHit
	misses pendBuf
	view   view // the facts of the state being expanded
}

// addMiss buffers one run for the barrier: after the pendBuf header, its
// key's stored form, the reference to its successor segment
// (memo.appendSegment) and its length-prefixed journal.
func (b *pendBuf) addMiss(m *memo, k *memoKey, pos, ord int32, seg, jrn []byte) {
	e := m.appendSegment(k.appendTo(b.begin(pos, ord)), seg)
	b.b = append(binary.AppendUvarint(e, uint64(len(jrn))), jrn...)
}

// absorb writes the runs the workers buffered during a layer into the memo
// in commit order (absorbInOrder), and then the facts of layer's states,
// the next (learn). It runs after the layer's commit, so that a segment the
// layer's new states brought is interned and an entry can refer to it by
// id.
func (m *memo) absorb(workers []worker, layer []int32) error {
	absorbInOrder(workers, func(wk *worker) *pendBuf {
		if wk.memoScratch == nil {
			return nil
		}
		return &wk.misses
	}, func(_ int32, e []byte) []byte {
		k, seg, jrn, rest := splitEntry(e)
		m.insert(&k, seg, jrn)
		return rest
	})
	return m.learn(layer, &workers[0].keys.remap)
}

// pendBuf is one worker's buffer of what it found during a layer for a
// table the barrier writes — the memo's runs, the remap table's pieces —
// in the order it found them: each entry begins with its transition's
// parent position and action ordinal as uvarints. It is truncated and
// reused at every barrier; taken is how much of it the barrier has
// absorbed.
type pendBuf struct {
	b     []byte
	taken int
}

// begin starts an entry for the transition (pos, ord) and returns the
// buffer to append the rest of it to.
func (b *pendBuf) begin(pos, ord int32) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b.b, uint64(pos)), uint64(ord))
}

// absorbInOrder hands take every entry of the buffers bufOf picks from the
// workers (nil: none) — its parent position, and what follows its two
// leading numbers — in commit order: by (parent position, action ordinal),
// merging the buffers, each in that order already because a worker takes
// positions in increasing order, so that a table written from them is the
// same for any worker count. take returns what follows the entry. The
// buffers are emptied.
func absorbInOrder(workers []worker, bufOf func(*worker) *pendBuf, take func(pos int32, e []byte) (rest []byte)) {
	for {
		var best *pendBuf // the one holding the earliest entry not yet taken
		var at uint64
		for i := range workers {
			if b := bufOf(&workers[i]); b != nil && b.taken < len(b.b) {
				pos, w := binary.Uvarint(b.b[b.taken:])
				ord, _ := binary.Uvarint(b.b[b.taken+w:])
				if a := pos<<32 | ord; best == nil || a < at {
					best, at = b, a
				}
			}
		}
		if best == nil {
			break
		}
		e := best.b[best.taken:]
		_, w := binary.Uvarint(e)
		_, w2 := binary.Uvarint(e[w:])
		best.taken += len(e) - len(take(int32(at>>32), e[w+w2:]))
	}
	for i := range workers {
		if b := bufOf(&workers[i]); b != nil {
			b.b, b.taken = b.b[:0], 0
		}
	}
}

// pendIndex is a pendBuf with an index of its entries, for a worker that
// looks up what it buffered earlier in the layer before the barrier does —
// the visited store's claims, the remap table's pieces: index holds each
// entry's tag above where it starts past its header, + 1. The buffer grows
// by doubling (open), where append would grow a large one a quarter at a
// time and so allocate several times a layer's bytes. The barrier that
// absorbs it resets it.
type pendIndex struct {
	pendBuf
	index slots
}

const (
	pendFirst = 4 << 10 // a pendIndex's first buffer
	pendSlots = 64      // and its index's first table
)

// reset empties the buffer and its index.
func (p *pendIndex) reset() {
	p.b, p.taken = p.b[:0], 0
	p.index.reset()
}

// open starts an entry for the transition (pos, ord) of at most n bytes
// past its header, doubling the buffer first if it lacks the room, and
// returns the buffer to append the rest of it to; false, with nothing
// written, if the entry could end past what a 32-bit offset addresses.
func (p *pendIndex) open(pos, ord int32, n int) ([]byte, bool) {
	if n += 2 * binary.MaxVarintLen32; len(p.b)+n >= math.MaxUint32 {
		return nil, false
	}
	if cap(p.b)-len(p.b) < n {
		p.b, p.index.first = append(make([]byte, 0, max(2*cap(p.b), len(p.b)+n, pendFirst)), p.b...), pendSlots
	}
	return p.begin(pos, ord), true
}

// recorder writes a handler run's journal while it runs (World.rec).
type recorder struct {
	jrn []byte
	enc runtime.Encoder // a sent message's encoding
	err error           // a sent message that cannot be encoded
}

func (r *recorder) reset() {
	r.jrn, r.err = r.jrn[:0], nil
}

func (r *recorder) send(dst int, m *runtime.Message) {
	r.enc.Reset(nil)
	if err := r.enc.Message(m); err != nil {
		r.err = err
		return
	}
	j := binary.AppendUvarint(append(r.jrn, jSend), uint64(dst))
	j = binary.AppendUvarint(j, uint64(len(r.enc.Bytes())))
	r.jrn = append(j, r.enc.Bytes()...)
}

func (r *recorder) op(op byte, id int, mode sema.AccessMode) {
	r.jrn = binary.AppendUvarint(append(r.jrn, op), uint64(id))
	if op != jWake {
		r.jrn = append(r.jrn, byte(mode))
	}
}

// jop is one journal operation, read by nextOp.
type jop struct {
	op   byte
	arg  int // destination for a send, else the block
	mode sema.AccessMode
	msg  []byte // a send's message encoding
}

// nextOp reads the operation at the front of jrn, which must not be empty.
func nextOp(jrn []byte) (o jop, rest []byte) {
	o.op = jrn[0]
	arg, w := binary.Uvarint(jrn[1:])
	o.arg, rest = int(arg), jrn[1+w:]
	switch o.op {
	case jSend:
		o.msg, rest = lenPrefixed(rest)
	case jAccess, jRecv:
		o.mode, rest = sema.AccessMode(rest[0]), rest[1:]
	}
	return o, rest
}

// memoHit is a memoized handler run being replayed onto parent, the world
// the state being expanded was decoded into or whose key, segment ends and
// tail its view holds, for action a — or a drop or a dup, replayed as a
// run of no handler.
type memoHit struct {
	memoRun
	parent *World
	view   *view
	a      *action
	touch  int
	named  int   // the channel a delivers from, drops from or dups in; -1 for none
	sends  []int // per destination, the journal's sends to it
	access []int // the blocks whose access the journal changes
}

// replayTail applies the run's effects outside the engine and its channels
// to succ's tail, which holds a copy of the parent's: the stall an event
// makes or the fault budget a drop or dup spends, then the journal's access
// changes and wakeups in order. It counts the sends per destination into
// h.sends, and lists the blocks whose access changes in h.access.
func (h *memoHit) replayTail(succ *World) {
	clear(h.sends)
	h.access = h.access[:0]
	switch h.a.kind {
	case actEvent:
		if h.a.event.Stalls {
			succ.stalled[h.touch] = h.a.block
		}
	case actDrop:
		succ.drops++
	case actDup:
		succ.dups++
	}
	for j := h.jrn; len(j) > 0; {
		var o jop
		o, j = nextOp(j)
		switch o.op {
		case jSend:
			h.sends[o.arg]++
		case jAccess, jRecv:
			succ.access[h.touch*succ.cfg.Blocks+o.arg] = o.mode
			h.access = append(h.access, o.arg)
		case jWake:
			succ.WakeUp(h.touch, o.arg)
		}
	}
}

// segment writes the successor's world segment seg, one World.encodeVia
// writes for h's action, and returns how many of its bytes it copied from
// the parent's key: the memoized engine segment, or a channel as the
// parent's key holds it, less the span of the message a delivers or drops
// or with a dup's written twice, plus what the journal sends into it.
func (h *memoHit) segment(enc *runtime.Encoder, seg int) (copied int) {
	p, v := h.parent, h.view
	nodes := len(v.nodes)
	if seg < nodes {
		enc.Raw(h.seg)
		return 0
	}
	// The channel is in the touched engine's row, or the named one.
	ch, dst, sends := seg-nodes, 0, 0
	if row := h.touch * nodes; h.touch != noEngine && ch >= row && ch < row+nodes {
		dst = ch - row
		sends = h.sends[dst]
	}
	start, end := bounds(p.segEnds, len(p.src), seg)
	if ch != h.named && sends == 0 {
		enc.Raw(p.src[start:end])
		return end - start
	}
	n := v.counts[ch]
	start += intLen(int64(n)) // past the count, at the messages
	switch {
	case ch != h.named:
		enc.Int(int64(n + sends))
		enc.Raw(p.src[start:end])
		copied = end - start
	default: // less the message's span, or for a dup with it twice
		_, ms, me := v.message(h.a)
		cut, resume, count := ms, me, n-1+sends
		if h.a.kind == actDup {
			cut, resume, count = me, ms, n+1
		}
		enc.Int(int64(count))
		enc.Raw(p.src[start:cut])
		enc.Raw(p.src[resume:end])
		copied = cut - start + end - resume
	}
	for j := h.jrn; sends > 0; {
		var o jop
		if o, j = nextOp(j); o.op == jSend && o.arg == dst {
			enc.Raw(o.msg)
			sends--
		}
	}
	return copied
}

// writes returns the first of world segments lo..hi-1, the touched
// engine's row, that the hit changes — one its journal sends into, or the
// one its action names — and the one past the last; hi, hi for none.
func (h *memoHit) writes(lo, hi int) (first, last int) {
	first, last = hi, hi
	for dst, n := range h.sends {
		if seg := lo + dst; n > 0 || seg-len(h.view.nodes) == h.named {
			first, last = min(first, seg), seg+1
		}
	}
	return first, last
}

// intLen is how many bytes runtime.Encoder.Int writes for v.
func intLen(v int64) int {
	u, n := uint64(v<<1^v>>63), 1
	for ; u >= 0x80; u >>= 7 {
		n++
	}
	return n
}

// holds reports whether the successor the hit describes keeps the
// invariants (World.checkInvariants) — succ holding its tail. The parent
// kept them, and the memoized run did too, so only what the replay changed
// can break one: the access of the blocks the journal names, and the
// channels the touched engine sends into or a dup duplicates into.
func (h *memoHit) holds(succ *World) bool {
	nodes := h.parent.cfg.Nodes
	if h.a.kind == actDup && h.view.counts[h.named]+1 > channelCap {
		return false
	}
	for dst, sends := range h.sends {
		if sends == 0 {
			continue
		}
		ch := h.touch*nodes + dst
		if n := h.view.counts[ch] + sends; n > channelCap && (ch != h.named || n-1 > channelCap) {
			return false
		}
	}
	if succ.cfg.CheckCoherence {
		for _, b := range h.access {
			if !succ.coherent(b) {
				return false
			}
		}
	}
	return true
}
