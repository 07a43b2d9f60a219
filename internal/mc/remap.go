package mc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"teapot/internal/runtime"
)

// The remap table: the images of key segments under the symmetry group,
// from which reduction.canonicalize assembles challengers (see the
// comment on symmetry reduction in symmetry.go).

// alien marks a source id (remapTable) the remap table gave a segment the
// visited store has not interned: a plain key's segment in an orientation
// no stored state has, which every successor that has it would otherwise
// remap again.
const alien = 1 << 31

// remapper remaps segments: it decodes one into a world (load) and encodes
// it again under a remap (write). The world is a worker's scratch
// successor world (worker.worlds), or one of the remapper's own, built on
// first use. Borrowing is sound because a successor's key is complete
// before it is canonicalized, and nothing else of the scratch world is
// read after that — the worker derives or replays into it afresh for its
// next action — and because only the world's own engines and tail are
// decoded into, never the parent's engines it may point at. region is
// where the world's engines build: the worker's, which its next state's
// decode resets (and the barrier, where nothing in it is live, may reset
// too), or the remapper's own, reset per segment.
type remapper struct {
	w      *World
	region *runtime.Region
	own    bool
	chans  [][]*runtime.Message // a row's channels, decoded
	enc    runtime.Encoder
}

// remap returns segment seg, which is of the given kind and is store
// segment src of its key, written under r. The bytes are valid until the
// next call.
func (x *remapper) remap(cfg *Config, kind int, seg []byte, src int, r *runtime.Remap) ([]byte, error) {
	if err := x.load(cfg, kind, seg, src); err != nil {
		return nil, err
	}
	return x.write(cfg, kind, src, r)
}

// load decodes segment seg, of the given kind and store segment src of
// its key: an engine's into the world's engine for that node — whose
// states and records are the ones it builds anyway — a row's messages by
// the engines they are bound for, the tail as the tail.
func (x *remapper) load(cfg *Config, kind int, seg []byte, src int) error {
	nodes := cfg.Nodes
	if x.w == nil {
		x.w, x.region, x.own = newWorld(cfg), new(runtime.Region), true
		for _, e := range x.w.owned {
			e.SetRegion(x.region)
		}
	}
	if x.own {
		x.region.Reset()
	}
	w, d := x.w, &x.w.dec
	d.Reset(seg)
	var err error
	switch kind {
	case pieceEngine:
		err = w.owned[src%nodes].DecodeState(d)
	case pieceRow:
		if x.chans == nil {
			// Room for a stored state's channels, which hold at most
			// channelCap messages each.
			all := make([]*runtime.Message, nodes*(channelCap+1))
			x.chans = make([][]*runtime.Message, nodes)
			for i := range x.chans {
				x.chans[i] = all[i*(channelCap+1) : i*(channelCap+1) : (i+1)*(channelCap+1)]
			}
		}
		for to := 0; to < nodes && err == nil; to++ {
			x.chans[to], err = decodeChannel(d, w.owned[to], x.chans[to])
		}
	case pieceTail:
		err = w.decodeTail(d)
	}
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return fmt.Errorf("mc: remap: %w", err)
	}
	return nil
}

// write encodes what load decoded under r: an engine's state again, a
// row's channels in image order, the tail as the tail.
func (x *remapper) write(cfg *Config, kind, src int, r *runtime.Remap) ([]byte, error) {
	w, enc := x.w, &x.enc
	enc.Reset(r)
	var err error
	switch kind {
	case pieceEngine:
		err = w.owned[src%cfg.Nodes].EncodeState(enc)
	case pieceRow:
		for to := 0; to < cfg.Nodes && err == nil; to++ {
			msgs := x.chans[r.SrcNode(to)]
			enc.Int(int64(len(msgs)))
			for i := 0; i < len(msgs) && err == nil; i++ {
				err = w.owned[0].EncodeMessage(enc, msgs[i])
			}
		}
	case pieceTail:
		w.encodeTail(enc)
	}
	if err != nil {
		return nil, fmt.Errorf("mc: remap: %w", err)
	}
	return enc.Bytes(), nil
}

// remapTable holds the remapped segments of one Check. It knows a segment
// by its source id: its intern id, or, for a segment the visited store
// lacks, an alien id (alien) its own interner gives it. For each segment as
// each kind a challenger needed it as, it keeps a block: the images under
// every group element but the identity — each as its intern id when the
// image is interned, else as its bytes — and the rank of every image among
// them, the identity's too. A block is filled whole, at a layer barrier,
// the first time a worker misses one of its pieces, so that comparing two
// images of one segment is comparing two ranks; only needed segments get
// one, so a group of order 120 does not store 119 images of every
// segment. The table is written only at layer barriers, in commit order
// (reduction.absorb), and workers read it without a lock, as they do the
// intern table, so what it holds is the same for any worker count.
type remapTable struct {
	segs  *visitedTable
	group int // |G|: a block's words
	// The entries of source id sid (atAlien's for alien ids; see head)
	// are 1 + the index of the segment's block as each kind, 0 for none. A
	// block is group words (see word): group element g's image at g —
	// id<<1|1 for an interned one, (loc+1)<<1 for one whose bytes,
	// length-prefixed, are at loc in images — each word with its image's
	// rank in bits 32..47, and the identity's rank at 0. Both lie in pages
	// that are never copied, so that the table grows by what it holds.
	at, atAlien [][]uint32
	vals        [][]uint64
	shift       int // a page of vals holds 1 << shift blocks
	blocks      int
	images      arena
	aliens      interner // the alien segments, by alien id
	pieces      int
	// fill's scratch: the images of one segment, their order, and one
	// image length-prefixed.
	imgs  []byte
	ends  []int
	order []int
	ent   []byte
}

const (
	remapAtPage     = 1 << 10 // source ids per page of at
	remapValsPage   = 8 << 10 // the most bytes a page of vals takes, if a block fits
	remapFirstChunk = 4 << 10 // the images' chunk capacities double from here
	remapMaxChunks  = 1 << 10 // an image's (locator+1)<<1 fits a word's low 32 bits
	alienFirstChunk = 1 << 10 // the aliens' chunk capacities double from here
	alienSlots      = 64      // the aliens' first table
)

// newRemapTable returns an empty remap table of a group of the given order
// over the intern table of segs.
func newRemapTable(segs *visitedTable, group int) *remapTable {
	return &remapTable{segs: segs, group: group, shift: max(bits.Len(uint(remapValsPage/(8*group)))-1, 0),
		images: arena{first: remapFirstChunk, size: arenaChunk, most: remapMaxChunks},
		aliens: interner{arena: arena{first: alienFirstChunk, size: arenaChunk, most: remapMaxChunks},
			slots: slots{first: alienSlots}, refs: make([]segRef, 0, alienSlots)},
		imgs: make([]byte, 0, 64*group), ends: make([]int, 0, group), order: make([]int, 0, group)}
}

// word returns word g of block b.
func (t *remapTable) word(b, g int) *uint64 {
	return &t.vals[b>>t.shift][(b&(1<<t.shift-1))*t.group+g]
}

// head returns the entry of the segment with source id sid as the given
// kind, nil if no page holds it.
func (t *remapTable) head(kind int, sid uint32) *uint32 {
	at := t.at
	if sid&alien != 0 {
		at, sid = t.atAlien, sid&^alien
	}
	if p := int(sid / remapAtPage); p < len(at) {
		return &at[p][3*(sid%remapAtPage)+uint32(kind)]
	}
	return nil
}

// block returns the index of the block of the segment with source id sid
// as the given kind, -1 for none.
func (t *remapTable) block(kind int, sid uint32) int {
	if h := t.head(kind, sid); h != nil {
		return int(*h) - 1
	}
	return -1
}

// get sets *out to group element g's image of segment s, whose block
// the table has.
func (t *remapTable) get(out *piece, s *piece, g int) {
	v := *t.word(int(s.blk), g)
	*out = piece{val: v, src: s.src, blk: s.blk, rank: uint16(v >> 32), in: inTable, sourced: true, ranked: true}
	if v&1 != 0 {
		out.id, out.ok, out.in = uint32(v)>>1, true, inSegs
	}
}

// image returns the bytes of p, a piece get set.
func (t *remapTable) image(p *piece) []byte {
	if p.in == inSegs {
		return t.segs.intern.at(p.id)
	}
	b, _ := lenPrefixed(t.images.at(uint64(uint32(p.val)>>1 - 1)))
	return b
}

// sourceID returns seg's source id, giving it an alien id if it has none,
// or false if the aliens' arena cannot take it. (The arena, 2³⁰ bytes,
// holds fewer aliens than alien ids.)
func (t *remapTable) sourceID(seg []byte) (uint32, bool) {
	fp := t.segs.hash(seg)
	if id, ok := t.segs.intern.lookup(seg, fp); ok {
		return id, true
	}
	aid, ok := t.aliens.intern(seg, fp)
	return aid | alien, ok
}

// fill gives the segment seg, with source id sid, its block as the given
// kind: every image under the group, remapped with x (at a barrier, where
// nothing in its region is live), filed, and ranked. A segment whose images
// the arena cannot take gets none: the workers remap what the table lacks.
func (r *reduction) fill(x *remapper, kind int, sid uint32, seg []byte) error {
	t, cfg := r.table, r.cfg
	x.region.Reset()
	if err := x.load(cfg, kind, seg, kind*cfg.Nodes); err != nil {
		return err
	}
	t.imgs, t.ends, t.order = append(t.imgs[:0], seg...), append(t.ends[:0], len(seg)), t.order[:0]
	for g := 1; g < t.group; g++ {
		b, err := x.write(cfg, kind, kind*cfg.Nodes, r.remaps[g])
		if err != nil {
			return err
		}
		t.imgs = append(t.imgs, b...)
		t.ends = append(t.ends, len(t.imgs))
	}
	img := func(g int) []byte {
		start := 0
		if g > 0 {
			start = t.ends[g-1]
		}
		return t.imgs[start:t.ends[g]]
	}
	for g := range t.group {
		t.order = append(t.order, g)
	}
	slices.SortStableFunc(t.order, func(a, b int) int { return bytes.Compare(img(a), img(b)) })
	blk := t.blocks
	if blk>>t.shift == len(t.vals) {
		t.vals = append(t.vals, make([]uint64, t.group<<t.shift))
	}
	words := t.vals[blk>>t.shift][(blk&(1<<t.shift-1))*t.group:][:t.group]
	clear(words)
	rank := 0
	for i, g := range t.order {
		if i > 0 && !bytes.Equal(img(g), img(t.order[i-1])) {
			rank++
		}
		words[g] = uint64(rank) << 32
	}
	for g := 1; g < t.group; g++ {
		b := img(g)
		if id, ok := t.segs.lookup(b); ok && id < alien {
			words[g] |= uint64(id)<<1 | 1
			continue
		}
		t.ent = append(binary.AppendUvarint(t.ent[:0], uint64(len(b))), b...)
		loc, ok := t.images.add(t.ent)
		if !ok {
			return nil
		}
		words[g] |= (loc + 1) << 1
	}
	t.blocks++
	t.pieces += t.group - 1
	h := t.head(kind, sid)
	for h == nil {
		at := &t.at
		if sid&alien != 0 {
			at = &t.atAlien
		}
		*at = append(*at, make([]uint32, 3*remapAtPage))
		h = t.head(kind, sid)
	}
	*h = uint32(blk + 1)
	return nil
}

// absorb gives a block, in commit order (absorbInOrder), to each segment
// whose piece a worker missed during a layer — and an alien id first to
// one that has no source id — and empties the workers' buffers. It runs
// after the layer's commit, so that a segment the layer's new states
// brought is known by its intern id, and it remaps with the first
// worker's remapper, idle at the barrier.
func (r *reduction) absorb(workers []worker) error {
	t := r.table
	var err error
	absorbInOrder(workers, func(wk *worker) *pendBuf { return &wk.keys.pend.pendBuf }, func(_ int32, e []byte) []byte {
		kind, _, sid, sourced, src, _, rest := readPend(e)
		if err != nil {
			return rest
		}
		if !sourced {
			if sid, sourced = t.sourceID(src); !sourced {
				return rest
			}
		}
		if t.block(kind, sid) < 0 {
			if sid&alien == 0 {
				src = t.segs.intern.at(sid)
			} else if src == nil {
				src = t.aliens.at(sid &^ alien)
			}
			err = r.fill(&workers[0].keys.remap, kind, sid, src)
		}
		return rest
	})
	for i := range workers {
		workers[i].keys.pend.index.reset()
	}
	return err
}

// stats returns how many pieces the table holds and what it retains.
func (t *remapTable) stats() (pieces int, bytes int64) {
	return t.pieces, int64(len(t.at)+len(t.atAlien))*3*remapAtPage*4 + int64(len(t.vals))*int64(t.group)<<t.shift*8 +
		t.images.bytes() + t.aliens.bytes()
}

// pendTag hashes the image under g of segment s, with bytes seg, as the
// given kind: by its source id, or else by its bytes' fingerprint.
func pendTag(kind int, s *piece, seg []byte, g int) uint32 {
	k := uint64(s.src) << 32
	if !s.sourced {
		k = fingerprint(seg)
	}
	return uint32(fold(k^uint64(g)<<2^uint64(kind), fpMul))
}

// readPend reads the entry at the front of e, past its header: a piece a
// worker remapped during a layer because the table lacked it, buffered in
// its keyScratch's pendIndex for the barrier to give its segment a block,
// and indexed by pendTag, so that a piece needed again before the barrier
// is remapped once. After the header come the piece's kind and group
// element, then its segment's source id or, if it has none, its
// length-prefixed bytes, then the piece's length-prefixed bytes.
func readPend(e []byte) (kind, g int, sid uint32, sourced bool, src, piece, rest []byte) {
	kind, g, flag := int(e[0]), 0, e[1]
	v, w := binary.Uvarint(e[2:])
	g, e = int(v), e[2+w:]
	if sourced = flag != 0; sourced {
		v, w = binary.Uvarint(e)
		sid, e = uint32(v), e[w:]
	} else {
		src, e = lenPrefixed(e)
	}
	piece, rest = lenPrefixed(e)
	return kind, g, sid, sourced, src, piece, rest
}

// findPiece returns where in the buffer the piece this worker buffered for
// the image under g of segment s, with bytes seg, as the given kind is, if
// it buffered one.
func (p *pendIndex) findPiece(kind int, s *piece, seg []byte, g int) (off, n uint32, ok bool) {
	tag := pendTag(kind, s, seg, g)
	for at, i := p.index.find(tag, int(tag)); at != 0; at, i = p.index.find(tag, i) {
		kd, gd, sid, sourced, src, b, rest := readPend(p.b[at-1:])
		if kd == kind && gd == g && sourced == s.sourced && (sourced && sid == s.src || !sourced && string(src) == string(seg)) {
			return uint32(len(p.b) - len(rest) - len(b)), uint32(len(b)), true
		}
	}
	return 0, 0, false
}

// addPiece buffers piece b, the image under g of segment s, with bytes
// seg, as the given kind, made by transition (pos, ord), and returns where
// in the buffer the copy is; false if the buffer is full (pendIndex.open).
func (p *pendIndex) addPiece(pos, ord int32, kind int, s *piece, seg []byte, g int, b []byte) (uint32, bool) {
	e, ok := p.open(pos, ord, 3+3*binary.MaxVarintLen32+len(seg)+len(b))
	if !ok {
		return 0, false
	}
	at := len(e)
	e = binary.AppendUvarint(append(e, byte(kind), 0), uint64(g))
	if s.sourced {
		e[at+1] = 1
		e = binary.AppendUvarint(e, uint64(s.src))
	} else {
		e = append(binary.AppendUvarint(e, uint64(len(seg))), seg...)
	}
	e = binary.AppendUvarint(e, uint64(len(b)))
	piece := len(e)
	p.b = append(e, b...)
	p.index.add(pendTag(kind, s, seg, g), uint32(at+1))
	return uint32(piece), true
}
