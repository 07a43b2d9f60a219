package mc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Segment facts: expanding a state from its key (DESIGN §7.4).
//
// What enumeration and replay read of a state is, segment by segment, a
// function of one segment: of an engine segment as node n's, per block its
// enabled events (when the generator vouches LocalEvents), its explicit
// TIMEOUT bit and its deferred messages' sources (engineRec); of a row,
// each message's span and id — its encoding interned — and who a message
// about each block concerns (rowRec). The tail is decoded as it is. The
// records lie in the memo's arena, located per intern id by at, and the
// message ids are entries of its table. They are built at the barrier, in
// commit order (memo.learn), and read by workers without a lock through a
// view of each state (view.load), which keys deliveries (memoKeyFor),
// splices channels (memoHit.segment) and, with enumeration on, lists the
// state's actions (World.appendFrom), so that the state is decoded only
// when one of them must run a handler.

// LocalEvents marks event generators whose Enabled(w, node, block) reads
// nothing of w but w.StateName(node, block), so that its answer is a
// function of the node, the block and that state: the checker then
// enumerates events from the engine segments' facts without decoding a
// state. Like EquivariantEvents it is a vouch, not a proof.
type LocalEvents interface {
	LocalEvents()
}

// msgMark opens a message entry's stored form in the memo's table: no
// action kind has it, so a run's key never matches a message.
const msgMark = 0x7f

// facts is what the memo keeps of the segments (see above).
type facts struct {
	// at holds, per intern id, stride words: 1 + the locator of the
	// segment's record as node n's engine (word n), then as a row (word
	// nodes); 0 for none.
	at        []uint32
	stride    int
	enumerate bool      // engine segments have records, and views list actions
	lists     [][]Event // the distinct enabled-event lists engine records name
	messages  int       // message entries in the memo's table
	cfg       *Config
	masks     []uint64 // rowFacts's scratch, per block
}

const factsFirstIDs = 64 // at's first allocation, in intern ids

// useFacts readies the memo's facts for a run of cfg.
func (m *memo) useFacts(cfg *Config) {
	_, local := cfg.Events.(LocalEvents)
	m.cfg, m.stride = cfg, cfg.Nodes+1
	m.enumerate = (cfg.Events == nil || local) && cfg.Client == nil && cfg.Terminal == nil && cfg.Nodes <= 64
	m.masks, m.lists, m.ent = make([]uint64, cfg.Blocks), make([][]Event, 0, 8), make([]byte, 0, 256)
}

// fact returns segment id's facts record as word k (see facts), nil for
// none.
func (m *memo) fact(id uint32, k int) []byte {
	if i := int(id)*m.stride + k; i < len(m.at) && m.at[i] != 0 {
		return m.arena.at(uint64(m.at[i] - 1))
	}
	return nil
}

// learn gives facts to the segments of layer's states, committed states in
// commit order, that have none yet in their position. It runs at the
// barrier, decoding with x, the first worker's remapper, idle there (and
// its region, where nothing is live there).
func (m *memo) learn(layer []int32, x *remapper) error {
	cfg, vt := m.cfg, m.segs
	if n := len(vt.intern.refs) * m.stride; n > len(m.at) {
		if n > cap(m.at) {
			m.at = append(make([]uint32, 0, max(8*cap(m.at), n, factsFirstIDs*m.stride)), m.at...)
		}
		m.at = m.at[:n]
	}
	for _, idx := range layer {
		rec := vt.record(idx)
		for k := range 2 * cfg.Nodes {
			id, w := nextID(rec)
			rec = rec[w:]
			word := min(k, cfg.Nodes)
			if k < cfg.Nodes && !m.enumerate || m.at[int(id)*m.stride+word] != 0 {
				continue
			}
			x.region.Reset()
			build := m.rowFacts
			if k < cfg.Nodes {
				build = m.engineFacts
			}
			f, err := build(x, k, vt.intern.at(id))
			if err != nil {
				return fmt.Errorf("mc: segment facts: %w", err)
			}
			m.at[int(id)*m.stride+word] = f
		}
	}
	return nil
}

// engineFacts files the facts of seg as node n's engine segment (see
// engineRec) and returns 1 + their locator, 0 if the arena cannot take
// them.
func (m *memo) engineFacts(x *remapper, n int, seg []byte) (uint32, error) {
	cfg, w := m.cfg, x.w
	if err := x.load(cfg, pieceEngine, seg, n); err != nil {
		return 0, err
	}
	// The generator reads the state through w's engine for the node.
	e := w.owned[n]
	w.engines[n] = e
	rec := m.ent[:0]
	for b, blk := range e.Blocks {
		var evs []Event
		if cfg.Events != nil {
			evs = cfg.Events.Enabled(w, n, b)
		}
		li := slices.IndexFunc(m.lists, func(l []Event) bool { return slices.Equal(l, evs) })
		if li < 0 {
			li, m.lists = len(m.lists), append(m.lists, evs)
		}
		ev := uint32(li) << 1
		if cfg.timeoutTag >= 0 && cfg.Proto.IR.HandlerFunc[blk.State.State][cfg.timeoutTag] != nil {
			ev |= 1
		}
		var mask uint64
		for _, msg := range blk.Deferred {
			mask |= bit(msg.Src, cfg.Nodes)
		}
		rec = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(rec, ev), mask)
	}
	return m.file(rec), nil
}

// file adds record rec, built in m.ent, to the arena and returns 1 + its
// locator, 0 if the arena cannot take it.
func (m *memo) file(rec []byte) uint32 {
	m.ent = rec
	loc, ok := m.arena.add(rec)
	if !ok {
		return 0
	}
	return uint32(loc + 1)
}

// engineRec is an engine segment's facts record as a node's: per block, a
// 32-bit word, the enabled-event list's index << 1 | the explicit-TIMEOUT
// bit, and the 64-bit mask of nodes its deferred messages come from, both
// little-endian.
type engineRec []byte

func (r engineRec) ev(b int) uint32       { return binary.LittleEndian.Uint32(r[12*b:]) }
func (r engineRec) deferred(b int) uint64 { return binary.LittleEndian.Uint64(r[12*b+4:]) }

// bit is node n's bit in a mask of nodes, 0 for a node outside them.
func bit(n, nodes int) uint64 {
	if uint(n) < uint(nodes) && n < 64 {
		return 1 << n
	}
	return 0
}

// rowFacts files the facts of row seg (see rowRec) and returns 1 + their
// locator, 0 if the arena cannot take them or the row is past what the
// record's fields hold.
func (m *memo) rowFacts(x *remapper, _ int, seg []byte) (uint32, error) {
	w, nodes := x.w, m.cfg.Nodes
	if len(seg) > math.MaxUint16 {
		return 0, nil
	}
	d := &w.dec
	d.Reset(seg)
	clear(m.masks)
	rec, msgs := append(m.ent[:0], make([]byte, 3*nodes+1)...), 0
	for to := range nodes {
		rec[to] = byte(msgs)
		for n := d.Count(); n > 0 && msgs < math.MaxUint8; n-- {
			start := d.Pos()
			msg, err := w.owned[to].DecodeMessage(d)
			if err != nil {
				return 0, err
			}
			id := m.message(seg[start:d.Pos()])
			if id == 0 {
				return 0, nil
			}
			rec = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(rec, uint16(d.Pos())), id)
			m.masks[msg.ID] |= bit(to, nodes) | bit(msg.Src, nodes)
			msgs++
		}
		binary.LittleEndian.PutUint16(rec[nodes+1+2*to:], uint16(d.Pos()))
	}
	if msgs == math.MaxUint8 {
		return 0, nil
	}
	if err := d.Finish(); err != nil {
		return 0, err
	}
	rec[nodes] = byte(msgs)
	for _, mask := range m.masks {
		rec = binary.LittleEndian.AppendUint64(rec, mask)
	}
	return m.file(rec), nil
}

// rowRec is a row's facts record, for a machine of nodes nodes: per
// channel and then once more a byte, the index of its first message among
// the row's (the last is how many the row holds); per channel, 16 bits,
// where it ends in the row; per message, 16 bits, where it ends in the
// row, and 32, its id; per block, the 64-bit mask of nodes a message about
// the block is bound for or comes from. All words are little-endian.
type rowRec []byte

func (r rowRec) first(to int) int        { return int(r[to]) }
func (r rowRec) end(nodes, to int) int   { return int(binary.LittleEndian.Uint16(r[nodes+1+2*to:])) }
func (r rowRec) msgEnd(nodes, j int) int { return int(binary.LittleEndian.Uint16(r[3*nodes+1+6*j:])) }
func (r rowRec) id(nodes, j int) uint32  { return binary.LittleEndian.Uint32(r[3*nodes+3+6*j:]) }
func (r rowRec) mask(nodes, b int) uint64 {
	return binary.LittleEndian.Uint64(r[3*nodes+1+6*int(r[nodes])+8*b:])
}

// message returns the id of the message encoded as b, interning it first
// if it has none; 0 if the arena cannot take it. Its entry's stored form
// is msgMark, then b length-prefixed.
func (m *memo) message(b []byte) uint32 {
	var buf [64]byte
	stored := append(binary.AppendUvarint(append(buf[:0], msgMark), uint64(len(b))), b...)
	tag := uint32(fingerprint(b))
	for loc, i := m.slots.find(tag, int(tag)); loc != 0; loc, i = m.slots.find(tag, i) {
		if ent := m.arena.at(uint64(loc - 1)); len(ent) >= len(stored) && string(ent[:len(stored)]) == string(stored) {
			return loc
		}
	}
	loc, ok := m.arena.add(stored)
	if !ok {
		return 0
	}
	m.slots.add(tag, uint32(loc+1))
	m.messages++
	return uint32(loc + 1)
}

// view is what a worker reads of the state it expands from its segments'
// facts (see above), for the state's key in the parent world's src.
type view struct {
	// Per node, its engine's facts record (with enumeration only) and its
	// row's, and where the row starts in the key.
	nodes []struct {
		eng, row []byte
		start    int
	}
	counts  []int     // per channel, how many messages it holds
	blocked []uint64  // per block, the nodes a timeout for it is blocked at
	lists   [][]Event // the memo's event lists, which engine records name
}

// load fills v from the facts of the state with key src and segment ids
// ids, points w (the parent world) at src, places its segments there
// (World.segEnds), and decodes its tail; false if a segment has no facts
// (the memo's arena ran out) or the tail does not decode, and then the
// state must be decoded whole.
func (v *view) load(m *memo, w *World, src []byte, ids []uint32) bool {
	nodes := m.cfg.Nodes
	if v.counts == nil {
		v.counts, v.blocked = make([]int, nodes*nodes), make([]uint64, m.cfg.Blocks)
		v.nodes = slices.Grow(v.nodes, nodes)[:nodes]
	}
	clear(v.blocked)
	segEnds, at := w.segEnds[:0], 0
	for n := range nodes {
		at += int(m.segs.intern.refs[ids[n]].n)
		segEnds = append(segEnds, at)
		if !m.enumerate {
			continue
		}
		if v.nodes[n].eng = m.fact(ids[n], n); v.nodes[n].eng == nil {
			return false
		}
		for b := range v.blocked {
			v.blocked[b] |= engineRec(v.nodes[n].eng).deferred(b)
		}
	}
	for from := range nodes {
		r := rowRec(m.fact(ids[nodes+from], nodes))
		if r == nil {
			return false
		}
		v.nodes[from].row, v.nodes[from].start = r, at
		for to := range nodes {
			segEnds = append(segEnds, at+r.end(nodes, to))
			v.counts[from*nodes+to] = r.first(to+1) - r.first(to)
		}
		for b := range v.blocked {
			v.blocked[b] |= r.mask(nodes, b)
		}
		at += int(m.segs.intern.refs[ids[nodes+from]].n)
	}
	w.src, w.segEnds, v.lists = src, segEnds, m.lists
	d := &w.dec
	d.Reset(src[at:])
	return w.decodeTail(d) == nil && d.Finish() == nil
}

// message returns the id of the message action a names, and where it
// starts and ends in the key.
func (v *view) message(a *action) (id uint32, start, end int) {
	nodes := len(v.nodes)
	r, row := rowRec(v.nodes[a.from].row), v.nodes[a.from].start
	j, start := r.first(a.to)+a.idx, row+intLen(int64(v.counts[a.from*nodes+a.to]))
	if a.idx > 0 {
		start = row + r.msgEnd(nodes, j-1)
	} else if a.to > 0 {
		start += r.end(nodes, a.to-1)
	}
	return r.id(nodes, j), start, row + r.msgEnd(nodes, j)
}

// count, enabled and timeoutEnabled are the view's actionSource: what
// World.appendFrom reads of the state v was loaded from, with enumeration.
func (v *view) count(ch int) int { return v.counts[ch] }

func (v *view) enabled(node, block int) []Event {
	return v.lists[engineRec(v.nodes[node].eng).ev(block)>>1]
}

func (v *view) timeoutEnabled(node, block int) bool {
	return engineRec(v.nodes[node].eng).ev(block)&1 != 0 && v.blocked[block]&bit(node, len(v.nodes)) == 0
}
