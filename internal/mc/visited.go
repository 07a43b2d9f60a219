package mc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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
//   - Membership is numShards mutex-protected slots tables (doubled under
//     the shard lock, allocated on first use), each tag the low 32 bits of
//     a key's fingerprint above a 32-bit ref: a positive ref is an arena
//     index + 1, a negative one a slot in the shard's pending slab. The
//     fingerprint is taken over the whole key, and a hit is confirmed
//     against the whole key — a committed state's segments, read in order,
//     must spell it — so hash collisions can never merge distinct states
//     (unlike Murphi's lossy hash compaction, exactness is preserved).
//   - Discoveries made while a BFS layer is expanding are buffered as
//     per-shard pending claims — a slab of records plus a slab of their key
//     bytes and segment descriptors, both truncated and reused at every
//     barrier, and both carved, as they grow, out of blocks the table
//     allocates for all 64 shards at once (slabs) — and folded into the
//     arena only at the layer barrier,
//     ordered by (parent position, action ordinal). Concurrent workers may
//     race to claim the same successor, but the merge keeps the smallest
//     claim — the transition a sequential scan would have taken, and the
//     one trace replay picks — so arena order, recorded parents, and
//     therefore every result the checker reports are identical for any
//     worker count.
//   - Segments are interned at the barrier too, in commit order, so ids and
//     the store's size are the same for any worker count, and the intern
//     table is never written while workers read it: they take no lock to
//     look a segment up, to confirm a hit, or to spell a state's key out of
//     its segments. The claims of one key carry
//     the same segmentation whichever worker made them, because the
//     canonical encoding is self-delimiting: where each segment ends is a
//     function of the bytes (World.decodeInto finds the same ends reading
//     them), so a key has exactly one record.

const (
	numShards  = 64
	shardShift = 64 - 6 // the shard is the fingerprint's top six bits

	firstChunk = 4 << 10 // the intern table's chunk capacities double from here
	minSlots   = 8       // a shard table's first allocation

	// The arena's pages: pageSize states each, the first growing to it by
	// doubling from firstPage.
	pageShift = 13
	pageSize  = 1 << pageShift
	firstPage = 16

	// A shard's pending slabs start at minPend records and minPendKeys
	// bytes, and are carved from blocks whose sizes double from
	// firstPendBlock records and firstKeysBlock bytes up to 8 times those.
	minPend        = 2
	minPendKeys    = 64
	firstPendBlock = 16
	firstKeysBlock = 256

	// The first allocations of the intern table (its slots and its
	// segment locators) and of commit's layer buffers: past the sizes a
	// few-state check would otherwise grow through one by one.
	minSegSlots = 64
	minLayer    = 64

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
// pure function of the bytes — nothing random — so shard balance repeats
// from run to run. The table takes the shard from the top of the result and
// the slot from the bottom.
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

// pendRec is a tentative intra-layer discovery: the key at keyOff in the
// shard's pendKeys, keyLen bytes long and followed by its segments'
// descriptors (up to the next record's keyOff; see claim), was reached from
// the state at layer position pos via its ord-th action. slot is where the
// claim's ref sits in the shard table, kept current when the table grows
// (shard.moved), so commit can overwrite it without probing.
type pendRec struct {
	keyOff, slot     uint32
	keyLen, pos, ord int32
}

type shard struct {
	mu sync.Mutex
	// The refs: the arena index + 1, or -(pend index + 1).
	slots slots

	pend     []pendRec
	pendKeys []byte
}

// moved keeps a pending claim's slot current when the table doubles.
func (s *shard) moved(ref uint32, slot int) {
	if ref := int32(ref); ref < 0 {
		s.pend[-ref-1].slot = uint32(slot)
	}
}

// commitRec orders one pending claim at the barrier.
type commitRec struct {
	at          uint64 // pos<<32 | ord
	shard, pend int32
}

// visitedTable is the sharded visited set, the state arena and the intern
// table.
type visitedTable struct {
	hash   func([]byte) uint64 // fingerprint; replaceable in tests
	shards [numShards]shard

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

	// What the shards' pending slabs are carved from (see claim).
	slabMu   sync.Mutex
	pendSlab slab[pendRec]
	keysSlab slab[byte]

	// commit's scratch, reused: the sort buffer, the record being built,
	// and the two next-layer buffers it alternates between (flip is the
	// one the next commit fills).
	order  []commitRec
	rec    []byte
	layers [2][]int32
	flip   int

	// The store's hard limit on states, a field so tests can reach it:
	// states are int32 arena indices. (The arena's limits, a chunk a record
	// or a segment must fit and 2³² chunks, are the intern table's.)
	maxStates int
}

func newVisited() *visitedTable {
	t := &visitedTable{hash: fingerprint, maxStates: math.MaxInt32, intern: interner{
		arena: arena{first: firstChunk, size: arenaChunk, most: math.MaxUint32},
		slots: slots{first: minSegSlots}, refs: make([]segRef, 0, minSegSlots),
	}}
	for i := range t.shards {
		t.shards[i].slots.first = minSlots
	}
	return t
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
	key := kb.Bytes()
	rec, off := t.record(idx), 0
	for k := range t.nseg {
		id, w := nextID(rec)
		rec = rec[w:]
		end := len(key)
		if k < len(kb.ends) {
			end = kb.ends[k]
		}
		if kb.known&(1<<k) != 0 {
			if id != kb.ids[k] {
				return false
			}
		} else if seg := t.intern.at(id); string(seg) != string(key[off:end]) {
			return false
		}
		off = end
	}
	return true
}

// pendKey returns the key of the shard's i-th pending claim.
func (s *shard) pendKey(i int) []byte {
	p := &s.pend[i]
	return s.pendKeys[p.keyOff : p.keyOff+uint32(p.keyLen)]
}

// pendSegs returns the segment descriptors of the shard's i-th pending
// claim (see claim).
func (s *shard) pendSegs(i int) []byte {
	end := len(s.pendKeys)
	if i+1 < len(s.pend) {
		end = int(s.pend[i+1].keyOff)
	}
	p := &s.pend[i]
	return s.pendKeys[p.keyOff+uint32(p.keyLen) : end]
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

// slab is where the shards' pending slabs of one kind are carved from: the
// block being carved, and how many blocks there have been.
type slab[T any] struct {
	block  []T
	blocks int
}

// carve returns old, a shard's pending slab, grown to hold need more: its
// contents copied into a piece of the slab's block twice its capacity (at
// least first). Blocks double from firstBlock up to 8 times that, a piece
// larger than a quarter of the next one getting a block of its own, so all
// 64 shards' slabs take a few allocations where growing each on its own
// took dozens. Claims on distinct shards may call it at the same time; mu
// serializes them.
func (s *slab[T]) carve(mu *sync.Mutex, old []T, need, first, firstBlock int) []T {
	n := max(2*cap(old), len(old)+need, first)
	mu.Lock()
	defer mu.Unlock()
	if b := s.block; cap(b)-len(b) < n {
		size := firstBlock << min(s.blocks, 3)
		if n > size/4 {
			return append(make([]T, 0, n), old...)
		}
		s.block, s.blocks = make([]T, 0, size), s.blocks+1
	}
	b := s.block
	s.block = b[:len(b)+n]
	return append(b[len(b):len(b):len(b)+n], old...)
}

// addRoot installs the initial state — the one claim of a layer whose
// parent is nothing — and returns it as the first layer. Its segments fix
// how many every key has.
func (t *visitedTable) addRoot(kb *keyBuf) ([]int32, error) {
	t.nseg = len(kb.ends) + 1
	t.rec = make([]byte, 0, binary.MaxVarintLen32*t.nseg)
	if err := t.claim(kb, 0, -1, false); err != nil {
		return nil, err
	}
	return t.commit([]int32{-1})
}

// claim records that the key kb holds was reached from layer position pos
// via action ord. Already-committed states are ignored; claims for the
// same key made during one layer are merged keeping the smallest (pos,
// ord). kb is the caller's scratch: it is only read here, and the key is
// copied into the shard's pending slab when — and only when — it becomes a
// new pending claim, followed by a uvarint descriptor per segment: id+1 for
// a segment whose id is known — kb knows it (keyBuf.known), or the intern
// table has it — and for a new one 0, its start and its length, to be
// interned at the barrier. shared says whether other
// goroutines may be claiming at the same time; if so the shard is locked,
// which a lone worker need not pay for. The error is a store limit reached
// (see visitedTable); the table is then good for nothing further.
func (t *visitedTable) claim(kb *keyBuf, pos, ord int32, shared bool) error {
	key := kb.Bytes()
	fp := t.hash(key)
	s := &t.shards[fp>>shardShift]
	if shared {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	tag := uint32(fp)
	for v, i := s.slots.find(tag, int(tag)); v != 0; v, i = s.slots.find(tag, i) {
		if ref := int32(v); ref > 0 {
			// The arena and the intern table are only appended to at layer
			// barriers, never while workers hold shard locks, so reading
			// them here is race-free.
			if t.equal(ref-1, kb) {
				return nil
			}
		} else if p := int(-ref - 1); bytes.Equal(s.pendKey(p), key) {
			if c := &s.pend[p]; pos < c.pos || (pos == c.pos && ord < c.ord) {
				c.pos, c.ord = pos, ord
			}
			return nil
		}
	}
	if len(s.pend) >= t.maxStates {
		return t.errFull()
	}
	if len(s.pendKeys)+len(key) > math.MaxUint32 {
		return fmt.Errorf("mc: visited store is full: a shard's pending keys outgrew their 32-bit offsets in one layer")
	}
	if len(s.pend) == cap(s.pend) {
		s.pend = t.pendSlab.carve(&t.slabMu, s.pend, 1, minPend, firstPendBlock)
	}
	s.pend = append(s.pend, pendRec{keyOff: uint32(len(s.pendKeys)), keyLen: int32(len(key)), pos: pos, ord: ord})
	// The segments' descriptors, written aside first so that the slab is
	// grown once, to its exact need.
	var descs [128]byte
	d, off := descs[:0], 0
	for k := range t.nseg {
		end := len(key)
		if k < len(kb.ends) {
			end = kb.ends[k]
		}
		if kb.known&(1<<k) != 0 {
			d = binary.AppendUvarint(d, uint64(kb.ids[k])+1)
		} else if id, ok := t.lookup(key[off:end]); ok {
			d = binary.AppendUvarint(d, uint64(id)+1)
		} else {
			d = binary.AppendUvarint(binary.AppendUvarint(append(d, 0), uint64(off)), uint64(end-off))
		}
		off = end
	}
	if need := len(key) + len(d); cap(s.pendKeys)-len(s.pendKeys) < need {
		s.pendKeys = t.keysSlab.carve(&t.slabMu, s.pendKeys, need, minPendKeys, firstKeysBlock)
	}
	b := append(append(s.pendKeys, key...), d...)
	s.pendKeys = b
	s.pend[len(s.pend)-1].slot = uint32(s.slots.add(uint32(fp), uint32(-len(s.pend)), s.moved))
	return nil
}

func (t *visitedTable) errFull() error {
	return fmt.Errorf("mc: visited store is full: states are 32-bit arena indices, at most %d", t.maxStates)
}

// commit folds the layer's claims into the arena in deterministic
// (parent position, action ordinal) order and returns the next layer as
// arena indices. layer maps claim positions back to arena indices; it must
// be the previous commit's result (or addRoot's one-entry layer), and it
// stays valid after the call: the next layer goes into the other of the
// table's two buffers. Both are grown together, so a commit no larger than
// an earlier one allocates nothing of its own. Called at the barrier only —
// never concurrently with claim. The error is a store limit reached.
func (t *visitedTable) commit(layer []int32) ([]int32, error) {
	order := t.order[:0]
	for i := range t.shards {
		for j, p := range t.shards[i].pend {
			order = append(order, commitRec{at: uint64(p.pos)<<32 | uint64(uint32(p.ord)), shard: int32(i), pend: int32(j)})
		}
	}
	t.order = order
	// (pos, ord) pairs are unique — one transition yields one successor,
	// and duplicate keys were merged in claim — so this order is total.
	slices.SortFunc(order, func(a, b commitRec) int { return cmp.Compare(a.at, b.at) })
	if n := len(order); cap(t.layers[t.flip]) < n {
		// Both grow, geometrically; the caller's layer keeps the array it has.
		n = max(n, 2*cap(t.layers[t.flip]), minLayer)
		t.layers = [2][]int32{make([]int32, 0, n), make([]int32, 0, n)}
	}
	next := t.layers[t.flip][:0]
	for _, c := range order {
		s := &t.shards[c.shard]
		p := &s.pend[c.pend]
		idx, err := t.appendState(s.pendKey(int(c.pend)), s.pendSegs(int(c.pend)), layer[p.pos])
		if err != nil {
			return nil, err
		}
		s.slots.set(int(p.slot), uint32(idx+1))
		next = append(next, idx)
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.pend, s.pendKeys = s.pend[:0], s.pendKeys[:0]
	}
	t.layers[t.flip], t.flip = next, 1-t.flip
	return next, nil
}

// bytes is what the committed structures retain: the intern table (its
// arena holding the records), the per-state locators and parents, and
// every shard's table. The pending slabs and commit's buffers, scratch
// reused from layer to layer, are left out. Called between layers it
// depends only on which states have been committed, never on how workers
// interleaved: the arena and the flat slices grow in commit order, and
// every claim a table grew for has become a state by the barrier.
func (t *visitedTable) bytes() int64 {
	n := t.intern.bytes()
	for p := range t.locs {
		n += int64(cap(t.locs[p]))*8 + int64(cap(t.parents[p]))*4
	}
	for i := range t.shards {
		n += t.shards[i].slots.bytes()
	}
	return n
}

// shardStats returns the smallest and largest committed-state count across
// the shards — a balance indicator for the fingerprint distribution. Called
// between layers, when every occupied slot is a committed state.
func (t *visitedTable) shardStats() (lo, hi int64) {
	lo = math.MaxInt64
	for i := range t.shards {
		n := int64(t.shards[i].slots.used)
		lo, hi = min(lo, n), max(hi, n)
	}
	return lo, hi
}
