package mc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The visited set is the checker's dominant memory consumer: how many states
// it can hold is how far verification reaches. It is therefore built from
// the pointer-free tables of table.go, and it stores a state as the ids of
// its key's segments, not as the key:
//
//   - A canonical key divides into one segment per engine, one per node's
//     row of outgoing channels, and the tail (keyBuf). The intern table
//     gives every distinct segment an id — one id space for every position
//     — and keeps its bytes once. A run has few distinct segments
//     (stache-ft at 3 nodes under one drop: 2,487 over 170,738 states), so
//     a state's record, one uvarint id per segment, is an eighth of its
//     key. SPIN's collapse compression does the same with its process and
//     channel vectors.
//   - Every discovered state lives once: its record in the intern table's
//     arena, beside the segment bytes, and its locator and its parent (the
//     arena index of the state it was first reached from — all a
//     counterexample trace needs, since replaying the chain finds each step
//     as the one whose successor has the next state's key: buildViolation)
//     in pages of pageSize states, pages for the reason an arena is chunks.
//     The first chunks, and the first page, are small so that a 14-state
//     check does not pay for a 1 MiB one.
//   - Membership is one slots table, each tag the low 32 bits of a key's
//     fingerprint above the state's arena index + 1. The fingerprint is
//     taken over the whole key, and a hit is confirmed against the whole
//     key — a committed state's segments, read in order, must spell it — so
//     hash collisions can never merge distinct states (unlike Murphi's
//     lossy hash compaction, exactness is preserved).
//   - The table is written only at layer barriers, as the memo and the
//     remap table are: while a layer expands, workers read it without a
//     lock, and a worker buffers each successor that is new to it — not in
//     the table, not in its buffer yet — in its own pendIndex (claim), with
//     its key and its segments' descriptors. The barrier (commit) absorbs
//     the buffers in (parent position, action ordinal) order
//     (absorbInOrder), dropping each key the table holds by then. A worker
//     takes positions in increasing order, so the entry a key has in its
//     buffer is its smallest claim there; across workers the smallest
//     comes first at the barrier. So the claim that commits is the
//     transition a sequential scan would have taken, and the one trace
//     replay picks, and arena order, recorded parents, and therefore every
//     result the checker reports are identical for any worker count.
//   - Segments are interned at the barrier too, in commit order, so ids and
//     the store's size are the same for any worker count, and workers look
//     a segment up, confirm a hit, or spell a state's key out of its
//     segments without a lock. The claims of one key carry the same
//     segmentation whichever worker made them, because the canonical
//     encoding is self-delimiting: where each segment ends is a function
//     of the bytes (World.decodeInto finds the same ends reading them), so
//     a key has exactly one record.

const (
	firstChunk = 4 << 10 // the intern table's chunk capacities double from here

	// The arena's pages: pageSize states each, the first growing to it by
	// doubling from firstPage.
	pageShift = 13
	pageSize  = 1 << pageShift
	firstPage = 16

	// The first allocations of the membership and intern tables, the
	// intern table's segment locators and commit's layer buffers: past the
	// sizes a few-state check would otherwise grow through one by one.
	minSlots = 64
	minLayer = 64

	// The fingerprint's seed and multipliers: fixed odd 64-bit constants
	// with well-spread bits (the first is 2⁶⁴ over the golden ratio).
	fpSeed = 0x9e3779b97f4a7c15
	fpMul  = 0xa0761d6478bd642f
	fpFin  = 0xe7037ed1a0b428db
)

// fingerprint hashes the canonical encoding eight bytes at a time: each
// little-endian word is xored into the state, and the state is folded —
// the two halves of its 128-bit product with a fixed multiplier xored
// together — so that every bit of the result depends on every bit of the
// word and of what came before it. The last one to eight bytes are read as
// the key's final word (overlapping the words already read) or, in a key
// shorter than a word, as its bytes zero-extended; the state starts from the
// length, so keys that differ only in trailing zero bytes differ. It is a
// pure function of the bytes — nothing random — so where a key lands
// repeats from run to run. The tables take the tag, and with it the slot a
// probe starts at, from the bottom of the result.
func fingerprint(key []byte) uint64 {
	h := fpSeed ^ uint64(len(key))
	s := key
	for ; len(s) > 8; s = s[8:] {
		h = fold(h^binary.LittleEndian.Uint64(s), fpMul)
	}
	var last uint64
	if len(key) >= 8 {
		last = binary.LittleEndian.Uint64(key[len(key)-8:])
	} else {
		for i, b := range s {
			last |= uint64(b) << (8 * i)
		}
	}
	return fold(h^last, fpFin)
}

// fold is the xor of the high and low halves of a·b.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// visitedTable is the visited set, the state arena and the intern table.
type visitedTable struct {
	hash func([]byte) uint64 // fingerprint; replaceable in tests
	// The committed states' tags above their arena index + 1.
	slots slots

	// The intern table of key segments, whose arena holds the states'
	// records too. nseg is the segments per key, set by the root's claim.
	intern interner
	nseg   int
	// Per state, in pages (see pageSize): locs holds the locator of its
	// record, parents the arena index of its parent (-1 for the root). n is
	// the number of states.
	locs    [][]uint64
	parents [][]int32
	n       int

	// commit's scratch, reused: the record being built, and the two
	// next-layer buffers it alternates between (flip is the one the next
	// commit fills).
	rec    []byte
	layers [2][]int32
	flip   int

	// The store's hard limit on states, a field so tests can reach it:
	// states are int32 arena indices. (The arena's limits, a chunk a record
	// or a segment must fit and 2³² chunks, are the intern table's.)
	maxStates int
}

func newVisited() *visitedTable {
	return &visitedTable{hash: fingerprint, maxStates: math.MaxInt32, slots: slots{first: minSlots}, intern: interner{
		arena: arena{first: firstChunk, size: arenaChunk, most: math.MaxUint32},
		slots: slots{first: minSlots}, refs: make([]segRef, 0, minSlots),
	}}
}

// states returns the number of committed states.
func (t *visitedTable) states() int { return t.n }

// parent returns the arena index of the state state idx was first reached
// from, -1 for the root.
func (t *visitedTable) parent(idx int32) int32 {
	return t.parents[idx>>pageShift][idx&(pageSize-1)]
}

// lookup returns the id of segment seg, if it has one. Workers call it
// while a layer expands: the intern table is written only at the barrier.
func (t *visitedTable) lookup(seg []byte) (uint32, bool) { return t.intern.lookup(seg, t.hash(seg)) }

// record returns state idx's record, its nseg segment ids, in place — and
// whatever follows it in its chunk.
func (t *visitedTable) record(idx int32) []byte {
	return t.intern.arena.at(t.locs[idx>>pageShift][idx&(pageSize-1)])
}

// nextID returns the id at the front of rec and its width in bytes.
func nextID(rec []byte) (id uint32, w int) {
	for {
		b := rec[w]
		id |= uint32(b&0x7f) << (7 * w)
		w++
		if b < 0x80 {
			return id, w
		}
	}
}

// expand appends state idx's canonical encoding — its segments in order —
// to key, and their ids to ids.
func (t *visitedTable) expand(key []byte, ids []uint32, idx int32) ([]byte, []uint32) {
	rec := t.record(idx)
	for range t.nseg {
		id, w := nextID(rec)
		rec = rec[w:]
		key, ids = append(key, t.intern.at(id)...), append(ids, id)
	}
	return key, ids
}

// equal reports whether the key kb holds is state idx's canonical
// encoding: whether the state's segments, read in order, spell it. A
// segment whose id kb knows (keyBuf.known) is the state's when the ids
// agree; any other is compared byte for byte.
func (t *visitedTable) equal(idx int32, kb *keyBuf) bool {
	rec := t.record(idx)
	for k := range t.nseg {
		id, w := nextID(rec)
		rec = rec[w:]
		if kb.known&(1<<k) != 0 {
			if id != kb.ids[k] {
				return false
			}
		} else if string(t.intern.at(id)) != string(kb.segment(k)) {
			return false
		}
	}
	return true
}

// spells reports whether state idx's segments, read in order, spell key:
// equal for a key known only by its bytes.
func (t *visitedTable) spells(idx int32, key []byte) bool {
	rec := t.record(idx)
	for range t.nseg {
		id, w := nextID(rec)
		rec = rec[w:]
		seg := t.intern.at(id)
		if !bytes.HasPrefix(key, seg) {
			return false
		}
		key = key[len(seg):]
	}
	return len(key) == 0
}

// refused returns the error for b, a record or a segment (what says
// which), that the intern table's arena would not take.
func (t *visitedTable) refused(b []byte, what string) error {
	a := &t.intern.arena
	if len(b) > a.size {
		return fmt.Errorf("mc: a %d-byte %s exceeds the visited store's %d-byte key chunk", len(b), what, a.size)
	}
	return fmt.Errorf("mc: visited store is full: its key locators address at most %d chunks of %d bytes", a.most, a.size)
}

// appendState adds the state with key to the arena and returns its index.
// segs are its segments' descriptors (see claim): a known segment's id is
// in its descriptor, a new one is interned. Only commit calls it: on the
// driver goroutine, never while workers run.
func (t *visitedTable) appendState(key, segs []byte, parent int32) (int32, error) {
	if t.n >= t.maxStates {
		return 0, t.errFull()
	}
	rec := t.rec[:0]
	for range t.nseg {
		d, w := binary.Uvarint(segs)
		segs = segs[w:]
		id := uint32(d) - 1
		if d == 0 {
			start, w := binary.Uvarint(segs)
			n, w2 := binary.Uvarint(segs[w:])
			segs = segs[w+w2:]
			seg := key[start : start+n]
			var ok bool
			if id, ok = t.intern.intern(seg, t.hash(seg)); !ok {
				return 0, t.refused(seg, "key segment")
			}
		}
		rec = binary.AppendUvarint(rec, uint64(id))
	}
	t.rec = rec
	loc, ok := t.intern.arena.add(rec)
	if !ok {
		return 0, t.refused(rec, "state record")
	}
	idx, p := int32(t.n), t.n>>pageShift
	if p == len(t.locs) {
		n := pageSize
		if p == 0 {
			n = firstPage
		}
		t.locs, t.parents = append(t.locs, make([]uint64, 0, n)), append(t.parents, make([]int32, 0, n))
	} else if len(t.locs[p]) == cap(t.locs[p]) { // the first page, doubling
		n := 2 * cap(t.locs[p])
		t.locs[p] = append(make([]uint64, 0, n), t.locs[p]...)
		t.parents[p] = append(make([]int32, 0, n), t.parents[p]...)
	}
	t.locs[p], t.parents[p] = append(t.locs[p], loc), append(t.parents[p], parent)
	t.n++
	return idx, nil
}

// addRoot installs the initial state — the one claim of a layer whose
// parent is nothing — through the first worker's buffer and returns it as
// the first layer. Its segments fix how many every key has.
func (t *visitedTable) addRoot(kb *keyBuf, workers []worker) ([]int32, error) {
	t.nseg = len(kb.ends) + 1
	t.rec = make([]byte, 0, binary.MaxVarintLen32*t.nseg)
	if err := t.claim(&workers[0].claims, kb, 0, 0); err != nil {
		return nil, err
	}
	return t.commit([]int32{-1}, workers[:1])
}

// claim records, in the worker's buffer b, that the key kb holds was
// reached from layer position pos via action ord, unless the key is a
// committed state or b holds it already: a worker claims in (pos, ord)
// order, so the claim b holds is the smaller. kb is the caller's scratch:
// it is only read here. The entry is, after b's header, the key and the
// segments' descriptors, each length-prefixed: a uvarint per segment, id+1
// for a segment whose id is known — kb knows it (keyBuf.known), or the
// intern table has it — and for a new one 0, its start and its length, to
// be interned at the barrier. The error is a store limit reached (see
// visitedTable); the table is then good for nothing further.
func (t *visitedTable) claim(b *pendIndex, kb *keyBuf, pos, ord int32) error {
	key := kb.Bytes()
	tag := uint32(t.hash(key))
	// The table and the intern table are written only at the barrier,
	// never while workers claim, so reading them here is race-free.
	for v, i := t.slots.find(tag, int(tag)); v != 0; v, i = t.slots.find(tag, i) {
		if t.equal(int32(v-1), kb) {
			return nil
		}
	}
	for at, i := b.index.find(tag, int(tag)); at != 0; at, i = b.index.find(tag, i) {
		if k, _ := lenPrefixed(b.b[at-1:]); string(k) == string(key) {
			return nil
		}
	}
	// Every entry of b becomes a state at the barrier.
	if t.n+b.index.used >= t.maxStates {
		return t.errFull()
	}
	// The segments' descriptors, written aside first so that the entry's
	// size is known before the buffer is grown.
	var descs [128]byte
	d := descs[:0]
	for k := range t.nseg {
		start, end := bounds(kb.ends, len(key), k)
		if kb.known&(1<<k) != 0 {
			d = binary.AppendUvarint(d, uint64(kb.ids[k])+1)
		} else if id, ok := t.lookup(key[start:end]); ok {
			d = binary.AppendUvarint(d, uint64(id)+1)
		} else {
			d = binary.AppendUvarint(binary.AppendUvarint(append(d, 0), uint64(start)), uint64(end-start))
		}
	}
	e, ok := b.open(pos, ord, 2*binary.MaxVarintLen32+len(key)+len(d))
	if !ok {
		return fmt.Errorf("mc: visited store is full: a worker's claims outgrew their 32-bit offsets in one layer")
	}
	b.index.add(tag, uint32(len(e)+1))
	e = append(binary.AppendUvarint(e, uint64(len(key))), key...)
	b.b = append(binary.AppendUvarint(e, uint64(len(d))), d...)
	return nil
}

func (t *visitedTable) errFull() error {
	return fmt.Errorf("mc: visited store is full: states are 32-bit arena indices, at most %d", t.maxStates)
}

// commit absorbs the workers' claim buffers into the arena in
// deterministic (parent position, action ordinal) order (absorbInOrder),
// dropping a claim whose key an earlier one committed, and returns the next
// layer as arena indices. layer maps claim positions back to arena
// indices; it must be the previous commit's result (or addRoot's one-entry
// layer), and it stays valid after the call: the next layer goes into the
// other of the table's two buffers. Both are grown together, so a commit no
// larger than an earlier one allocates nothing of its own. Called at the
// barrier only — never concurrently with claim. The error is a store limit
// reached.
func (t *visitedTable) commit(layer []int32, workers []worker) ([]int32, error) {
	n := 0
	for i := range workers {
		n += workers[i].claims.index.used
	}
	if cap(t.layers[t.flip]) < n {
		// Both grow, geometrically; the caller's layer keeps the array it has.
		n = max(n, 2*cap(t.layers[t.flip]), minLayer)
		t.layers = [2][]int32{make([]int32, 0, n), make([]int32, 0, n)}
	}
	next := t.layers[t.flip][:0]
	var err error
	absorbInOrder(workers, func(wk *worker) *pendBuf { return &wk.claims.pendBuf }, func(pos int32, e []byte) []byte {
		key, e := lenPrefixed(e)
		segs, rest := lenPrefixed(e)
		if err != nil {
			return rest
		}
		tag := uint32(t.hash(key))
		for v, i := t.slots.find(tag, int(tag)); v != 0; v, i = t.slots.find(tag, i) {
			if t.spells(int32(v-1), key) {
				return rest
			}
		}
		var idx int32
		if idx, err = t.appendState(key, segs, layer[pos]); err == nil {
			t.slots.add(tag, uint32(idx+1))
			next = append(next, idx)
		}
		return rest
	})
	for i := range workers {
		workers[i].claims.reset()
	}
	if err != nil {
		return nil, err
	}
	t.layers[t.flip], t.flip = next, 1-t.flip
	return next, nil
}

// bytes is what the committed structures retain: the intern table (its
// arena holding the records), the per-state locators and parents, and the
// table. The workers' buffers and commit's scratch, reused from layer to
// layer, are left out. Called between layers it depends only on which
// states have been committed, never on how workers interleaved: everything
// it counts grows in commit order.
func (t *visitedTable) bytes() int64 {
	n := t.intern.bytes() + t.slots.bytes()
	for p := range t.locs {
		n += int64(cap(t.locs[p]))*8 + int64(cap(t.parents[p]))*4
	}
	return n
}
