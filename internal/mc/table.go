package mc

// The checker's stores — the visited set's table and intern table, the
// transition memo, the remap table's alien segments and images, and a
// worker's index of what it buffered during a layer — are built from
// the three types here, each table fixing their sizes by its own constants:
//
//   - slots, an open-addressed table of 8-byte words, each a 32-bit
//     fingerprint tag above a 32-bit value. A tag's probe sequence starts
//     at the slot its low bits name and runs linearly to the first empty
//     slot, so the table doubles at 3/4 load by moving words, never hashing
//     a key again. A tag hit says nothing until the caller confirms it.
//   - arena, append-only []byte chunks. Capacities double from a first size
//     up to 1 MiB; nothing straddles two chunks, so what an arena holds is
//     read where it lies, at its locator, chunk index << 20 | offset. They
//     are chunks rather than one growing slice because append grows a large
//     slice by a quarter at a time and so copies, and for a while holds
//     twice, all of it again and again.
//   - interner, an arena plus slots plus refs: byte strings to dense ids,
//     handed out in the order the strings are added.
//
// All three are pointer-free, so the garbage collector neither traces nor
// moves what they hold: a run keeps O(chunks + tables) heap objects, not
// O(states).

// arenaChunk is the largest chunk: a locator's offset has 20 bits.
const arenaChunk = 1 << 20

// slots is the table of tags. A value must not be 0, which marks an empty
// slot. first is the first allocation, a power of two; used counts the
// occupied slots.
type slots struct {
	w     []uint64
	used  int
	first int
}

// find returns the first value from slot i on along tag's probe sequence,
// which starts at slot int(tag), that is stored under tag, and the slot to
// go on from; 0 at the sequence's end. Its callers loop over it, a cursor
// kept in two integers:
//
//	for v, i := s.find(tag, int(tag)); v != 0; v, i = s.find(tag, i) {
func (s *slots) find(tag uint32, i int) (v uint32, next int) {
	mask := len(s.w) - 1
	if mask < 0 {
		return 0, 0
	}
	for i &= mask; s.w[i] != 0; i = (i + 1) & mask {
		if e := s.w[i]; uint32(e>>32) == tag {
			return uint32(e), i + 1
		}
	}
	return 0, i
}

// add stores v under tag, doubling the table first (or allocating it) if
// it would pass 3/4 load.
func (s *slots) add(tag, v uint32) {
	if (s.used+1)*4 > len(s.w)*3 {
		old := s.w
		s.w = make([]uint64, max(2*len(old), s.first))
		for _, e := range old {
			if e != 0 {
				s.put(e)
			}
		}
	}
	s.used++
	s.put(uint64(tag)<<32 | uint64(v))
}

// put stores word e in the first empty slot of its tag's probe sequence.
// An empty slot must exist.
func (s *slots) put(e uint64) {
	tag := uint32(e >> 32)
	v, i := s.find(tag, int(tag))
	for v != 0 {
		v, i = s.find(tag, i)
	}
	s.w[i] = e
}

// reset empties the table, keeping its allocation.
func (s *slots) reset() { clear(s.w); s.used = 0 }

func (s *slots) bytes() int64 { return int64(len(s.w)) * 8 }

// arena is the chunks. Their capacities double from first up to size (at
// most arenaChunk), and most is how many chunks the table's locators can
// address.
type arena struct {
	chunks            [][]byte
	first, size, most int
}

// add appends b to the last chunk, or to a new one if it does not fit, and
// returns its locator; false, with nothing written, if b is longer than a
// chunk or the arena is full.
func (a *arena) add(b []byte) (uint64, bool) {
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < len(b) {
		if len(b) > a.size || len(a.chunks) >= a.most {
			return 0, false
		}
		a.chunks = append(a.chunks, make([]byte, 0, min(max(a.first<<min(len(a.chunks), 20), len(b)), a.size)))
		last++
	}
	c := a.chunks[last]
	a.chunks[last] = append(c, b...)
	return uint64(last)<<20 | uint64(len(c)), true
}

// at returns what lies at loc, up to the end of its chunk.
func (a *arena) at(loc uint64) []byte { return a.chunks[loc>>20][loc&(arenaChunk-1):] }

// bytes is what the chunks retain.
func (a *arena) bytes() int64 {
	var n int64
	for _, c := range a.chunks {
		n += int64(cap(c))
	}
	return n
}

// segRef locates an interned string: n bytes at off in chunk.
type segRef struct{ chunk, off, n uint32 }

// interner is the ids: refs[id] locates string id in the arena, and slots
// holds each string's tag, from the fingerprint its caller hands in, above
// id + 1. size is the strings' total length.
type interner struct {
	arena arena
	slots slots
	refs  []segRef
	size  int64
}

// at returns string id, read-only, in place.
func (n *interner) at(id uint32) []byte {
	r := n.refs[id]
	return n.arena.chunks[r.chunk][r.off : r.off+r.n]
}

// lookup returns the id of b, whose fingerprint is fp, if it has one.
func (n *interner) lookup(b []byte, fp uint64) (uint32, bool) {
	tag := uint32(fp)
	for v, i := n.slots.find(tag, int(tag)); v != 0; v, i = n.slots.find(tag, i) {
		if string(n.at(v-1)) == string(b) {
			return v - 1, true
		}
	}
	return 0, false
}

// intern returns the id of b, whose fingerprint is fp, giving it the next
// one if it has none; false if the arena cannot take it.
func (n *interner) intern(b []byte, fp uint64) (uint32, bool) {
	if id, ok := n.lookup(b, fp); ok {
		return id, true
	}
	loc, ok := n.arena.add(b)
	if !ok {
		return 0, false
	}
	id := uint32(len(n.refs))
	n.refs = append(n.refs, segRef{chunk: uint32(loc >> 20), off: uint32(loc) & (arenaChunk - 1), n: uint32(len(b))})
	n.size += int64(len(b))
	n.slots.add(uint32(fp), id+1)
	return id, true
}

// bytes is what the interner retains: a segRef is 12 bytes.
func (n *interner) bytes() int64 { return int64(cap(n.refs))*12 + n.slots.bytes() + n.arena.bytes() }
