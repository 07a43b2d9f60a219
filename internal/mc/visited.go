package mc

import (
	"sort"
	"sync"
)

// The visited set is the checker's dominant memory consumer, so it is kept
// compact and concurrent:
//
//   - Every discovered state lives once in an append-only arena holding its
//     canonical encoding plus eight bytes of metadata (parent arena index
//     and the ordinal of the action that produced it) — the counterexample
//     trace is re-derived by replaying that chain, instead of storing a
//     description string per state as the first checker did.
//   - Membership is a table of numShards shards, each a mutex-protected map
//     keyed by a 64-bit FNV-1a fingerprint of the encoding. A fingerprint
//     hit is confirmed against the full key in the arena, so hash
//     collisions can never merge distinct states (unlike Murphi's lossy
//     hash compaction, exactness is preserved).
//   - Discoveries made while a BFS layer is expanding are buffered as
//     per-shard "claims" and folded into the arena only at the layer
//     barrier, ordered by (parent position, action ordinal). Concurrent
//     workers may race to claim the same successor, but the merge keeps the
//     smallest claim — the transition a sequential scan would have taken —
//     so arena order, recorded parents, and therefore every result the
//     checker reports are identical for any worker count.

const (
	numShards = 64
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fingerprint is 64-bit FNV-1a over the canonical encoding.
func fingerprint(s []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// stateRec is one visited state: its canonical encoding and the compact
// parent chain used to rebuild counterexample traces.
type stateRec struct {
	key    string
	parent int32 // arena index of the parent state, -1 for the root
	action int32 // ordinal into the parent's action list, -1 for the root
	// perm is the index (into the run's permutation group) of the
	// permutation that mapped the concretely-reached successor onto key.
	// Always 0 (identity) when symmetry reduction is off; buildViolation
	// composes these down the parent chain to rebuild traces in the
	// original, unpermuted coordinates.
	perm int32
}

// claim is a tentative intra-layer discovery: state key was reached from
// the state at layer position pos via its ord-th action, permuted onto its
// canonical representative by group element perm.
type claim struct {
	key  string
	fp   uint64
	pos  int32
	ord  int32
	perm int32
	next *claim // chain of distinct pending keys sharing a fingerprint
}

type shard struct {
	mu      sync.Mutex
	seen    map[uint64][]int32 // fingerprint -> committed arena indices
	pending map[uint64]*claim  // fingerprint -> claims made this layer
}

// visitedTable is the sharded visited set plus the state arena.
type visitedTable struct {
	hash   func([]byte) uint64 // fingerprint; replaceable in tests
	shards [numShards]shard
	arena  []stateRec

	// keyBytes and counts are running totals maintained at addRoot/commit
	// (never while workers hold shard locks), so progress snapshots are
	// O(shards), not O(states).
	keyBytes int64
	counts   [numShards]int64 // committed states per shard
}

func newVisited() *visitedTable {
	t := &visitedTable{hash: fingerprint}
	for i := range t.shards {
		t.shards[i].seen = make(map[uint64][]int32)
		t.shards[i].pending = make(map[uint64]*claim)
	}
	return t
}

// addRoot installs the initial state and returns its arena index. perm is
// the group element that canonicalized the initial world (0 when symmetry
// reduction is off).
func (t *visitedTable) addRoot(key string, perm int32) int32 {
	fp := t.hash([]byte(key))
	t.arena = append(t.arena, stateRec{key: key, parent: -1, action: -1, perm: perm})
	s := &t.shards[fp%numShards]
	s.seen[fp] = append(s.seen[fp], 0)
	t.keyBytes += int64(len(key))
	t.counts[fp%numShards]++
	return 0
}

// claim records that key was reached from layer position pos via action
// ord. Already-committed states are ignored; claims for the same key made
// during one layer are merged keeping the smallest (pos, ord). key is the
// caller's scratch: it is only compared here, and copied into a string
// when — and only when — it becomes a new pending claim. Safe for
// concurrent use while a layer expands.
func (t *visitedTable) claim(key []byte, pos, ord, perm int32) {
	fp := t.hash(key)
	s := &t.shards[fp%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range s.seen[fp] {
		// The arena is only appended to at layer barriers, never while
		// workers hold shard locks, so reading it here is race-free.
		if t.arena[idx].key == string(key) {
			return
		}
	}
	for c := s.pending[fp]; c != nil; c = c.next {
		if c.key == string(key) {
			if pos < c.pos || (pos == c.pos && ord < c.ord) {
				c.pos, c.ord, c.perm = pos, ord, perm
			}
			return
		}
	}
	s.pending[fp] = &claim{key: string(key), fp: fp, pos: pos, ord: ord, perm: perm, next: s.pending[fp]}
}

// commit folds the layer's claims into the arena in deterministic
// (parent position, action ordinal) order and returns the next layer as
// arena indices. layer maps claim positions back to arena indices. Called
// at the barrier only — never concurrently with claim.
func (t *visitedTable) commit(layer []int32) []int32 {
	var claims []*claim
	for i := range t.shards {
		s := &t.shards[i]
		for _, c := range s.pending {
			for ; c != nil; c = c.next {
				claims = append(claims, c)
			}
		}
		clear(s.pending)
	}
	// (pos, ord) pairs are unique — one transition yields one successor,
	// and duplicate keys were merged in claim — so this order is total.
	sort.Slice(claims, func(i, j int) bool {
		a, b := claims[i], claims[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.ord < b.ord
	})
	next := make([]int32, 0, len(claims))
	for _, c := range claims {
		idx := int32(len(t.arena))
		t.arena = append(t.arena, stateRec{key: c.key, parent: layer[c.pos], action: c.ord, perm: c.perm})
		s := &t.shards[c.fp%numShards]
		s.seen[c.fp] = append(s.seen[c.fp], idx)
		t.keyBytes += int64(len(c.key))
		t.counts[c.fp%numShards]++
		next = append(next, idx)
	}
	return next
}

// bytes estimates the retained size of the visited set: key bytes plus
// per-state bookkeeping (string header, parent/action, shard index entry).
func (t *visitedTable) bytes() int64 {
	return t.keyBytes + int64(len(t.arena))*32
}

// shardStats returns the smallest and largest committed-state count across
// the shards — a balance indicator for the fingerprint distribution.
func (t *visitedTable) shardStats() (min, max int64) {
	min = t.counts[0]
	for _, n := range t.counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}
