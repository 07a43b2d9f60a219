package mc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// The visited set is the checker's dominant memory consumer: how many states
// it can hold is how far verification reaches. It is therefore built from
// flat, pointer-free arrays the garbage collector neither traces nor moves —
// a run holds O(chunks + shards) heap objects, not O(states):
//
//   - Every discovered state lives once in an append-only arena. Its
//     canonical encoding sits length-prefixed in a []byte chunk; locs[i]
//     locates state i's key (chunk index and offset) and parents[i] is the
//     arena index of the state it was first reached from — all a
//     counterexample trace needs, since replaying the chain finds each step
//     as the one whose successor has the next state's key (buildViolation).
//     Chunks have a fixed capacity and a key never straddles two, so a key
//     is read (compared, decoded) where it lies. They are chunks rather than
//     one growing slice because append grows a large slice by a quarter at a
//     time and so copies — and for a while holds twice — the whole arena
//     again and again; the first chunks are small so that a 14-state check
//     does not pay for a 1 MiB one.
//   - Membership is numShards mutex-protected open-addressed tables (linear
//     probing, doubled under the shard lock, allocated on first use) of
//     parallel fingerprints and refs: a positive ref is an arena index + 1,
//     a negative one a slot in the shard's pending slab, 0 an empty slot. A
//     fingerprint hit is confirmed against the full key, so hash collisions
//     can never merge distinct states (unlike Murphi's lossy hash
//     compaction, exactness is preserved).
//   - Discoveries made while a BFS layer is expanding are buffered as
//     per-shard pending claims — a slab of records plus a slab of their key
//     bytes, both truncated and reused at every barrier — and folded into
//     the arena only at the layer barrier, ordered by (parent position,
//     action ordinal). Concurrent workers may race to claim the same
//     successor, but the merge keeps the smallest claim — the transition a
//     sequential scan would have taken, and the one trace replay picks — so
//     arena order, recorded parents, and therefore every result the checker
//     reports are identical for any worker count.

const (
	numShards  = 64
	shardShift = 64 - 6 // the shard is the fingerprint's top six bits

	firstChunk = 4 << 10 // chunk capacities double from here ...
	chunkSize  = 1 << 20 // ... up to this, the size of all later chunks

	minSlots = 8 // a shard table's first allocation; always a power of two

	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fingerprint is 64-bit FNV-1a over the canonical encoding, finished with
// one multiply-xorshift round. FNV-1a alone mixes upwards only — bit k of
// the hash depends on no input bit above k — so its low bits, and any
// residue of them, spread keys unevenly. After the round the top bits depend
// on every bit of the FNV hash and are folded into the bottom ones; the
// table takes the shard from the top of the result and the slot from the
// bottom.
func fingerprint(s []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// pendRec is a tentative intra-layer discovery: the key at keyOff in the
// shard's pendKeys (up to the next record's keyOff) was reached from the
// state at layer position pos via its ord-th action. slot is where the
// claim's ref sits in the shard table, kept current when the table grows, so
// commit can overwrite it without probing.
type pendRec struct {
	keyOff, slot int
	pos, ord     int32
}

type shard struct {
	mu   sync.Mutex
	fps  []uint64 // fingerprint of the entry in each slot
	refs []int32  // arena index + 1, or -(pend index + 1), or 0 for empty
	used int      // occupied slots

	pend     []pendRec
	pendKeys []byte
}

// commitRec orders one pending claim at the barrier.
type commitRec struct {
	at          uint64 // pos<<32 | ord
	shard, pend int32
}

// visitedTable is the sharded visited set plus the state arena.
type visitedTable struct {
	hash   func([]byte) uint64 // fingerprint; replaceable in tests
	shards [numShards]shard

	chunks  [][]byte
	locs    []uint64    // per state: chunk index << 32 | offset of its length prefix
	parents []int32     // per state: arena index of its parent, -1 for the root
	order   []commitRec // commit's sort buffer, reused

	// The store's hard limits, fields so tests can reach them: states are
	// int32 arena indices, a key locator holds a 32-bit chunk index, and a
	// key (with its length prefix) must fit a chunk.
	maxStates, maxChunks, chunkSize int
}

func newVisited() *visitedTable {
	return &visitedTable{hash: fingerprint,
		maxStates: math.MaxInt32, maxChunks: math.MaxUint32, chunkSize: chunkSize}
}

// states returns the number of committed states.
func (t *visitedTable) states() int { return len(t.parents) }

// key returns state idx's canonical encoding, read-only, in place.
func (t *visitedTable) key(idx int32) []byte {
	loc := t.locs[idx]
	b := t.chunks[loc>>32][uint32(loc):]
	n, w := binary.Uvarint(b)
	return b[w : w+int(n)]
}

// pendKey returns the key of the shard's i-th pending claim.
func (s *shard) pendKey(i int) []byte {
	end := len(s.pendKeys)
	if i+1 < len(s.pend) {
		end = s.pend[i+1].keyOff
	}
	return s.pendKeys[s.pend[i].keyOff:end]
}

// put stores (fp, ref) in the first empty slot of fp's probe sequence,
// which must exist.
func (s *shard) put(fp uint64, ref int32) int {
	mask := len(s.refs) - 1
	i := int(fp) & mask
	for s.refs[i] != 0 {
		i = (i + 1) & mask
	}
	s.fps[i], s.refs[i] = fp, ref
	return i
}

// grow doubles the shard's table (or allocates it), moving every entry and
// telling live pending claims their new slot.
func (s *shard) grow() {
	fps, refs := s.fps, s.refs
	n := max(2*len(refs), minSlots)
	s.fps, s.refs = make([]uint64, n), make([]int32, n)
	for i, ref := range refs {
		if ref == 0 {
			continue
		}
		slot := s.put(fps[i], ref)
		if ref < 0 {
			s.pend[-ref-1].slot = slot
		}
	}
}

// appendState adds a state to the arena and returns its index. Only commit
// calls it: on the driver goroutine, never while workers run.
func (t *visitedTable) appendState(key []byte, parent int32) (int32, error) {
	if len(t.parents) >= t.maxStates {
		return 0, t.errFull()
	}
	var prefix [binary.MaxVarintLen64]byte
	need := binary.PutUvarint(prefix[:], uint64(len(key))) + len(key)
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < need {
		if need > t.chunkSize {
			return 0, fmt.Errorf("mc: a %d-byte state encoding exceeds the visited store's %d-byte key chunk", len(key), t.chunkSize)
		}
		if len(t.chunks) >= t.maxChunks {
			return 0, fmt.Errorf("mc: visited store is full: its key locators address at most %d chunks of %d bytes", t.maxChunks, t.chunkSize)
		}
		size := min(max(firstChunk<<min(len(t.chunks), 8), need), t.chunkSize)
		t.chunks = append(t.chunks, make([]byte, 0, size))
		last++
	}
	c := t.chunks[last]
	idx := int32(len(t.parents))
	t.locs = append(t.locs, uint64(last)<<32|uint64(len(c)))
	t.parents = append(t.parents, parent)
	t.chunks[last] = append(append(c, prefix[:need-len(key)]...), key...)
	return idx, nil
}

// addRoot installs the initial state — the one claim of a layer whose
// parent is nothing — and returns it as the first layer.
func (t *visitedTable) addRoot(key []byte) ([]int32, error) {
	if err := t.claim(key, 0, -1); err != nil {
		return nil, err
	}
	return t.commit([]int32{-1})
}

// claim records that key was reached from layer position pos via action
// ord. Already-committed states are ignored; claims for the same key made
// during one layer are merged keeping the smallest (pos, ord). key is the
// caller's scratch: it is only compared here, and copied into the shard's
// pending slab when — and only when — it becomes a new pending claim. Safe
// for concurrent use while a layer expands. The error is a store limit
// reached (see visitedTable); the table is then good for nothing further.
func (t *visitedTable) claim(key []byte, pos, ord int32) error {
	fp := t.hash(key)
	s := &t.shards[fp>>shardShift]
	s.mu.Lock()
	defer s.mu.Unlock()
	if mask := len(s.refs) - 1; mask > 0 { // else the shard has no table yet
		for i := int(fp) & mask; s.refs[i] != 0; i = (i + 1) & mask {
			if s.fps[i] != fp {
				continue
			}
			if ref := s.refs[i]; ref > 0 {
				// The arena is only appended to at layer barriers, never
				// while workers hold shard locks, so reading it here is
				// race-free.
				if bytes.Equal(t.key(ref-1), key) {
					return nil
				}
			} else if p := int(-ref - 1); bytes.Equal(s.pendKey(p), key) {
				if c := &s.pend[p]; pos < c.pos || (pos == c.pos && ord < c.ord) {
					c.pos, c.ord = pos, ord
				}
				return nil
			}
		}
	}
	if len(s.pend) >= t.maxStates {
		return t.errFull()
	}
	if (s.used+1)*4 > len(s.refs)*3 {
		s.grow()
	}
	s.used++
	s.pend = append(s.pend, pendRec{keyOff: len(s.pendKeys), pos: pos, ord: ord})
	s.pendKeys = append(s.pendKeys, key...)
	s.pend[len(s.pend)-1].slot = s.put(fp, int32(-len(s.pend)))
	return nil
}

func (t *visitedTable) errFull() error {
	return fmt.Errorf("mc: visited store is full: states are 32-bit arena indices, at most %d", t.maxStates)
}

// commit folds the layer's claims into the arena in deterministic
// (parent position, action ordinal) order and returns the next layer as
// arena indices. layer maps claim positions back to arena indices. Called
// at the barrier only — never concurrently with claim. The error is a store
// limit reached.
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
	next := make([]int32, len(order))
	for n, c := range order {
		s := &t.shards[c.shard]
		p := &s.pend[c.pend]
		idx, err := t.appendState(s.pendKey(int(c.pend)), layer[p.pos])
		if err != nil {
			return nil, err
		}
		s.refs[p.slot] = idx + 1
		next[n] = idx
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.pend, s.pendKeys = s.pend[:0], s.pendKeys[:0]
	}
	return next, nil
}

// bytes is what the committed structures retain: the key chunks' capacity,
// the per-state locators and parents, and every shard's table slots. The
// pending slabs and the sort buffer, scratch reused from layer to layer, are
// left out. Called between layers it depends only on which states have been
// committed, never on how workers interleaved: chunks and the two flat
// slices grow in commit order, and every claim a table grew for has become
// a state by the barrier.
func (t *visitedTable) bytes() int64 {
	n := int64(cap(t.locs))*8 + int64(cap(t.parents))*4
	for _, c := range t.chunks {
		n += int64(cap(c))
	}
	for i := range t.shards {
		n += int64(len(t.shards[i].refs)) * (8 + 4)
	}
	return n
}

// shardStats returns the smallest and largest committed-state count across
// the shards — a balance indicator for the fingerprint distribution. Called
// between layers, when every occupied slot is a committed state.
func (t *visitedTable) shardStats() (min, max int64) {
	min = int64(t.shards[0].used)
	for i := range t.shards {
		n := int64(t.shards[i].used)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}
