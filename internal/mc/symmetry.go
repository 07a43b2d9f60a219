package mc

import (
	"bytes"
	"cmp"
	"fmt"
	"sync"

	"teapot/internal/analysis"
	"teapot/internal/runtime"
)

// Certificate-gated symmetry reduction.
//
// A symmetric protocol cannot tell node 1 from node 2 (or block 0 from
// block 1), so the reachable graph decomposes into permutation orbits and
// the checker only needs one representative per orbit. Soundness never
// rests on an mc heuristic: reduction turns on only when
//
//   - the static prover (internal/analysis.ProveSymmetry) certifies both
//     dimensions over the compiled IR,
//   - every support routine the IR calls is vouched equivariant by the
//     support module itself (runtime.SymmetryDecl), with its node-bitmask
//     variable slots declared so canonicalization can re-index them, and
//   - the event generator declares equivariance (EquivariantEvents).
//
// The admissible group is {(π over nodes, σ over blocks) : π(home(b)) =
// home(σ(b)) for all b}, home being runtime.HomeOf — home bindings are the
// machine's, not state, so a permutation must map homes onto homes.
// Canonicalization takes the lexicographically smallest of the world's
// encodings under every group element. Which element won is not kept:
// counterexample traces are replayed in original coordinates, each step the
// first whose successor canonicalizes to the next stored key (see
// buildViolation), so no group algebra is ever needed.
//
// No permuted world is ever built, and the checker never re-encodes a
// world to canonicalize it. A group element is a runtime.Remap the encoder
// applies as it writes (World.encodeTo walks a whole world under one; the
// reference implementation it is tested against, permuteWorld, and what the
// remap must touch are in symmetry_internal_test.go), and a challenger is
// assembled from the plain key's segments, each remapped on its own:
//
//   - Segment locality. Under g = (π, σ) the image's engine i is engine
//     π⁻¹(i)'s segment remapped; its row i is row π⁻¹(i), its channels
//     reordered by π and their messages remapped; its tail is the tail
//     remapped. So each piece of a challenger is a pure function of (the
//     segment's kind, its bytes, g), and the remap table (remapTable) keeps
//     the images of a segment under the whole group, with their order,
//     filled at the barriers for the segments challengers needed.
//   - Prefix-freeness. The encoding is self-delimiting, so no segment of a
//     kind is a proper prefix of another of that kind, and comparing two
//     challengers piece by piece, in order, decides as comparing their
//     whole keys byte by byte would. Two pieces with the same intern id are
//     equal unread, and two images of one segment compare by their ranks.
//
// So a transition costs one plain encode of the segments its action
// touched (World.encodeVia) and, per further group element, a table read
// per piece until a piece decides — mostly a rank or id comparison, since
// a piece whose source is the plain key's own segment there (a home node,
// which every element fixes with one block) is an image of the same
// segment. A segment the table has no images of yet is remapped on the
// spot, decoded into the worker's scratch and encoded under the remap, and
// the barrier fills its images. A challenger that wins is copied out of
// its pieces, not encoded. Over warmed scratch and a warmed table none of
// it allocates.

// SymmetryMode selects the reduction policy for a run.
type SymmetryMode int

// Symmetry modes. The zero value is off so existing configurations are
// untouched byte for byte.
const (
	// SymmetryOff never reduces.
	SymmetryOff SymmetryMode = iota
	// SymmetryAuto reduces when the certificate and vouches allow it and
	// silently runs unreduced otherwise (Result.SymmetryNote says why).
	SymmetryAuto
	// SymmetryOn requires reduction: configuration fails with an error
	// naming the first refutation witness or missing vouch otherwise.
	SymmetryOn
)

func (m SymmetryMode) String() string {
	switch m {
	case SymmetryOff:
		return "off"
	case SymmetryAuto:
		return "auto"
	case SymmetryOn:
		return "on"
	}
	return fmt.Sprintf("symmetry(%d)", int(m))
}

// ParseSymmetryMode parses the -symmetry flag values.
func ParseSymmetryMode(s string) (SymmetryMode, error) {
	switch s {
	case "off":
		return SymmetryOff, nil
	case "auto":
		return SymmetryAuto, nil
	case "on":
		return SymmetryOn, nil
	}
	return SymmetryOff, fmt.Errorf("unknown symmetry mode %q (want auto, off, or on)", s)
}

// EquivariantEvents marks event generators whose Enabled output commutes
// with node/block permutation of the world: permuting the world permutes
// the enabled events and changes nothing else. All bundled generators
// qualify (they observe only state names, access modes, per-block
// counters, and message predicates); the marker makes that an explicit
// promise the reduction gate can check.
type EquivariantEvents interface {
	SymmetricEvents()
}

// maxSymmetryDim bounds permutation-group enumeration (dim! each way).
const maxSymmetryDim = 8

// maxAutoGroupOrder bounds the group SymmetryAuto will reduce by. Every
// further group element costs each transition a challenger — a table read
// and a comparison per piece until one decides — and the table holds |G|−1
// images of each segment a challenger needed, remapped at the barriers, so
// cost and memory grow linearly in |G| while the orbits thin out by |G|
// only deep into a run. The bound was set
// when each challenger re-encoded the world: measured on base Stache and LCM
// Simple, state-capped, at the deepest layer both runs finished, up to order
// 120 a reduced run reached a given depth in under a fifth of the unreduced
// time at 3.5–5.3× the cost per transition; at 240–720 the cost was 10–43×
// and shallow prefixes broke even at best; from 1440 up reduction lost
// outright. Assembled challengers cost less than that, so the bound errs on
// the cautious side. SymmetryOn is the caller asking for the group whatever
// its order.
const maxAutoGroupOrder = 120

// perm is one admissible group element.
type perm struct {
	node []int // node n appears as node[n] in the permuted world
	blk  []int // block b appears as blk[b]
}

func (g *perm) identity() bool {
	for i, v := range g.node {
		if v != i {
			return false
		}
	}
	for i, v := range g.blk {
		if v != i {
			return false
		}
	}
	return true
}

// reduction is the active symmetry machinery for one run.
type reduction struct {
	cfg   *Config
	group []*perm // identity first, then enumeration order
	// remaps[i] is group[i] as the encoder applies it, inverses
	// precomputed; remaps[0] is nil (the identity encodes plainly).
	remaps []*runtime.Remap
	// table holds the run's remapped segments.
	table *remapTable
}

// keyScratch is one worker's reusable key buffers: best holds the key,
// cand is where a winning challenger is copied out, and they swap when one
// wins. Keys returned from it are valid until its next use. encoded is how
// many bytes the last key cost to encode (see Result.KeyBytesEncoded). The
// rest is canonicalize's: the plain key's segments it has resolved and
// the pieces of two challengers (made on its first use, so that a run
// without reduction does not carry them), the bytes of pieces remapped on
// the spot, what remaps them, and the pieces the table lacked, for the
// barrier.
type keyScratch struct {
	best, cand keyBuf
	encoded    int

	resolved uint64 // plain segments resolved (reduction.source)
	pieces   *keyPieces
	made     []byte
	remap    remapper
	pend     pendIndex
}

// key encodes w into the scratch — canonicalized when red is non-nil —
// and returns the buffer holding the visited-set key, with its segments
// (keyBuf). via is the action that derived w from the state it was decoded
// from (nil: encode all of it; World.encodeVia). The remap table's misses
// are not buffered: key serves the initial state and tests, not a layer.
func (sc *keyScratch) key(w *World, red *reduction, via *action) (*keyBuf, error) {
	kb, err := sc.plain(w, via, nil, nil)
	if err == nil && red != nil {
		err = red.canonicalize(sc, false, 0, 0)
	}
	return kb, err
}

// plain is key without the canonicalization: the plain encoding of w, with
// hit, if set, writing what via changed (World.encodeVia), and from, if
// set, the ids of the segments of the stored state w was decoded from.
func (sc *keyScratch) plain(w *World, via *action, hit *memoHit, from []uint32) (*keyBuf, error) {
	sc.best.Reset(nil)
	var copied int
	var err error
	if via != nil {
		copied, err = w.encodeVia(&sc.best, via, hit, from)
	} else {
		err = w.encodeTo(&sc.best)
	}
	sc.encoded = len(sc.best.Bytes()) - copied
	return &sc.best, err
}

// buildReduction decides whether reduction is enabled for this
// configuration. It returns (nil, reason, nil) to run unreduced — always
// fine under SymmetryAuto — and an error under SymmetryOn, which demands
// reduction or an explanation loud enough to stop the run.
func buildReduction(cfg *Config) (*reduction, string, error) {
	refuse := func(format string, args ...any) (*reduction, string, error) {
		reason := fmt.Sprintf(format, args...)
		if cfg.Symmetry == SymmetryOn {
			return nil, "", fmt.Errorf("mc: -symmetry=on but %s", reason)
		}
		return nil, reason, nil
	}
	if cfg.Symmetry == SymmetryOff {
		return nil, "", nil
	}
	if cfg.Client != nil {
		return refuse("a scripted litmus client pins node and block identities")
	}
	if cfg.Nodes > maxSymmetryDim || cfg.Blocks > maxSymmetryDim {
		return refuse("%d nodes / %d blocks exceeds the permutation enumeration bound (%d)",
			cfg.Nodes, cfg.Blocks, maxSymmetryDim)
	}
	cert := proveSymmetry(cfg.Proto)
	for _, dim := range []struct {
		name string
		d    *analysis.SymmetryDim
	}{{"node", &cert.Node}, {"block", &cert.Block}} {
		if !dim.d.Equivariant {
			w := dim.d.Witnesses[0]
			return refuse("the static prover refutes %s symmetry: handler %s, %s (instr %d: %s)",
				dim.name, w.Handler, w.Reason, w.Index, w.Instr)
		}
	}
	var maskSlots []int
	if len(cert.Obligations) > 0 {
		decl, ok := cfg.Support.(runtime.SymmetryDecl)
		if !ok {
			return refuse("support module does not declare routine equivariance (runtime.SymmetryDecl)")
		}
		vouched := map[string]bool{}
		for _, r := range decl.EquivariantRoutines() {
			vouched[r] = true
		}
		for _, ob := range cert.Obligations {
			if !vouched[ob.Routine] {
				return refuse("support routine %s is not vouched equivariant", ob.Routine)
			}
		}
		maskSlots = decl.NodeMaskSlots()
	}
	if cfg.Events != nil {
		if _, ok := cfg.Events.(EquivariantEvents); !ok {
			return refuse("event generator does not declare equivariance (mc.EquivariantEvents)")
		}
	}
	group := enumerateGroup(cfg)
	if cfg.Symmetry == SymmetryAuto && len(group) > maxAutoGroupOrder {
		return refuse("the symmetry group of %d nodes / %d blocks has order %d, above the %d that -symmetry=auto reduces by (every transition would pay for up to %d encodes; -symmetry=on overrides)",
			cfg.Nodes, cfg.Blocks, len(group), maxAutoGroupOrder, len(group))
	}
	red := &reduction{cfg: cfg, group: group, remaps: make([]*runtime.Remap, len(group))}
	for i := 1; i < len(group); i++ {
		red.remaps[i] = runtime.NewRemap(group[i].node, group[i].blk, maskSlots)
	}
	return red, "", nil
}

// certs memoizes analysis.ProveSymmetry per compiled protocol, so that a
// process proves a protocol once, not once per Check: protocols.Spec shares
// one build per process. The certificate is a function of the protocol
// alone, which is read-only once compiled, so no Check sees another's
// state through it. A protocol compiled apart stays reachable from here.
var certs sync.Map // *runtime.Protocol → *analysis.SymmetryCert

// proveSymmetry returns p's certificate (analysis.ProveSymmetry), proving
// it on first use.
func proveSymmetry(p *runtime.Protocol) *analysis.SymmetryCert {
	c, ok := certs.Load(p)
	if !ok {
		c, _ = certs.LoadOrStore(p, analysis.ProveSymmetry(p))
	}
	return c.(*analysis.SymmetryCert)
}

// enumerateGroup lists the admissible (node, block) permutation pairs,
// identity first: every (π, σ) with π(home(b)) = home(σ(b)) for all b, in
// lexicographic order of σ and then of π. σ fixes π on the home nodes (or
// rules itself out by asking one home for two images), and homes map onto
// homes, so only the non-home nodes are permuted among themselves — the
// enumeration never visits an inadmissible pair.
func enumerateGroup(cfg *Config) []*perm {
	isHome := make([]bool, cfg.Nodes)
	for b := 0; b < cfg.Blocks; b++ {
		isHome[runtime.HomeOf(b, cfg.Nodes)] = true
	}
	var free []int // non-home nodes, ascending
	for n, h := range isHome {
		if !h {
			free = append(free, n)
		}
	}
	freePerms := permutations(len(free))
	var group []*perm
sigmas:
	for _, sigma := range permutations(cfg.Blocks) {
		pi := make([]int, cfg.Nodes)
		for i := range pi {
			pi[i] = -1
		}
		taken := make([]bool, cfg.Nodes)
		for b := 0; b < cfg.Blocks; b++ {
			h, img := runtime.HomeOf(b, cfg.Nodes), runtime.HomeOf(sigma[b], cfg.Nodes)
			switch {
			case pi[h] == img:
			case pi[h] >= 0 || taken[img]:
				continue sigmas // π would not be a well-defined bijection
			default:
				pi[h], taken[img] = img, true
			}
		}
		// Home positions are the same in every π for this σ, so ordering
		// the free positions lexicographically orders the whole of π.
		for _, fp := range freePerms {
			full := append([]int(nil), pi...)
			for i, n := range free {
				full[n] = free[fp[i]]
			}
			group = append(group, &perm{node: full, blk: sigma})
		}
	}
	// Lexicographic enumeration puts the identity pair first already;
	// assert rather than assume, since canonicalize short-circuits on it.
	if len(group) == 0 || !group[0].identity() {
		panic("mc: symmetry group enumeration lost the identity")
	}
	return group
}

// permutations returns all permutations of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	var out [][]int
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := range used {
			if !used[v] {
				used[v] = true
				cur = append(cur, v)
				rec()
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
	}
	rec()
	return out
}

// The kinds of store segment (keyBuf), as a remap treats them.
const (
	pieceEngine = iota
	pieceRow
	pieceTail
)

// pieceSource returns the kind of store segment p of a key, and the store
// segment of the world that, remapped under r, is segment p of the
// world's image (see the package comment).
func pieceSource(p, nodes int, r *runtime.Remap) (kind, src int) {
	switch {
	case p < nodes:
		return pieceEngine, r.SrcNode(p)
	case p < 2*nodes:
		return pieceRow, nodes + r.SrcNode(p-nodes)
	}
	return pieceTail, p
}

// piece is one store segment of a key being assembled, without its bytes:
// in says where they are (reduction.bytes) — in the plain key or a buffer
// of the scratch at off, n bytes; the intern table's segment id; or the
// remap table's chunks, at the locator its word val holds — so that
// writing one costs the garbage collector nothing. id is its intern id
// when ok. When sourced, src is the source id the table knows the segment
// it is an image of by, blk that segment's block as this kind (-1: none
// yet), and, when ranked, rank is the piece's place among the segment's
// images under the group.
type piece struct {
	val                 uint64
	id, src, off, n     uint32
	blk                 int32
	rank                uint16
	in                  uint8
	ok, sourced, ranked bool
}

// Where a piece's bytes are (piece.in).
const (
	inKey   = iota // the plain key in sc.best
	inSegs         // the intern table, as segment id
	inTable        // the remap table's chunks
	inPend         // sc.pend's buffer
	inMade         // sc.made
)

// bytes returns p's bytes, from sc's buffers or the tables.
func (r *reduction) bytes(sc *keyScratch, p *piece) []byte {
	switch p.in {
	case inKey:
		return sc.best.Bytes()[p.off : p.off+p.n]
	case inSegs, inTable:
		return r.table.image(p)
	case inPend:
		return sc.pend.b[p.off : p.off+p.n]
	}
	return sc.made[p.off : p.off+p.n]
}

// compare orders p and q, pieces at the same place of two keys, as the
// keys compare from there on (each kind is prefix-free): by rank when both
// are images of one segment, as equal when they have one id, else by their
// bytes.
func (r *reduction) compare(sc *keyScratch, p, q *piece) int {
	switch {
	case p.ranked && q.ranked && p.src == q.src:
		return cmp.Compare(p.rank, q.rank)
	case p.ok && q.ok && p.id == q.id:
		return 0
	}
	return bytes.Compare(r.bytes(sc, p), r.bytes(sc, q))
}

// canonicalize takes sc.best, holding the plain key of a world with its
// segment ends and the ids it knows, to the lexicographically smallest key
// of the world over the group. Each challenger is assembled piece by piece
// (piece) and compared as it goes: it loses at the first piece greater than
// the best key's, and wins only if one is smaller, so ties keep the lowest
// group index. The ids it learns stay with the key for the claim. With
// buffer set, a piece the table lacks is buffered for the barrier as one
// transition (pos, ord) made.
func (r *reduction) canonicalize(sc *keyScratch, buffer bool, pos, ord int32) error {
	nodes := r.cfg.Nodes
	n := 2*nodes + 1
	sc.begin()
	// The best challenger's pieces and the current one's; none is best
	// while the plain key is.
	best, chal, won := &sc.pieces.chal[0], &sc.pieces.chal[1], 0
	for g := 1; g < len(r.remaps); g++ {
		c := 0
		for p := range n {
			kind, src := pieceSource(p, nodes, r.remaps[g])
			if err := r.piece(sc, &chal[p], kind, src, g, buffer, pos, ord); err != nil {
				return err
			}
			if c == 0 {
				top := &best[p]
				if won == 0 {
					top = r.source(sc, kind, p)
				}
				if c = r.compare(sc, &chal[p], top); c > 0 {
					break
				}
			}
		}
		if c < 0 {
			best, chal, won = chal, best, g
		}
	}
	if won == 0 {
		return nil
	}
	out := &sc.cand
	out.Reset(nil)
	ends := out.sizeEnds(nodes)
	for p := range n {
		out.Raw(r.bytes(sc, &best[p]))
		if p < len(ends) {
			ends[p] = len(out.Bytes())
		}
		if best[p].ok {
			out.know(p, best[p].id)
		}
	}
	sc.best, sc.cand = sc.cand, sc.best
	return nil
}

// maxPieces bounds the segments of a key under reduction: 2·8 + 1.
const maxPieces = 2*maxSymmetryDim + 1

// keyPieces is the plain key's segments and two challengers' pieces.
type keyPieces struct {
	src  [maxPieces]piece
	chal [2][maxPieces]piece
}

// begin readies the scratch to assemble the challengers of the plain key
// in sc.best.
func (sc *keyScratch) begin() {
	if sc.pieces == nil {
		sc.pieces = new(keyPieces)
	}
	sc.resolved, sc.made = 0, sc.made[:0]
}

// source returns store segment k, of the given kind, of the plain key in
// sc.best, resolved once per canonicalization: its intern id — looked up
// if the key does not know it, and then known to the key — or else its
// alien id, and its block of images with its own rank among them if the
// table has them.
func (r *reduction) source(sc *keyScratch, kind, k int) *piece {
	s := &sc.pieces.src[k]
	if sc.resolved&(1<<k) != 0 {
		return s
	}
	sc.resolved |= 1 << k
	kb, t := &sc.best, r.table
	start, end := 0, len(kb.Bytes())
	if k > 0 {
		start = kb.ends[k-1]
	}
	if k < len(kb.ends) {
		end = kb.ends[k]
	}
	*s = piece{off: uint32(start), n: uint32(end - start), id: kb.ids[k], ok: kb.known&(1<<k) != 0, blk: -1}
	if !s.ok {
		seg := kb.Bytes()[start:end]
		fp := t.segs.hash(seg)
		if s.id, s.ok = t.segs.intern.lookup(seg, fp); s.ok {
			kb.know(k, s.id)
		} else if aid, ok := t.aliens.lookup(seg, fp); ok {
			s.src, s.sourced = aid|alien, true
		}
	}
	if s.ok {
		s.src, s.sourced = s.id, true
	}
	if s.sourced {
		if b := t.block(kind, s.src); b >= 0 {
			s.blk, s.rank, s.ranked = int32(b), uint16(*t.word(b, 0)>>32), true
		}
	}
	return s
}

// piece sets *out to store segment src of the plain key in sc.best, of the
// given kind, remapped under group element g: from the table, from what
// this worker remapped of it already this layer, or remapped here.
func (r *reduction) piece(sc *keyScratch, out *piece, kind, src, g int, buffer bool, pos, ord int32) error {
	s := r.source(sc, kind, src)
	if s.blk >= 0 {
		r.table.get(out, s, g)
		return nil
	}
	seg := r.bytes(sc, s)
	if buffer {
		if off, n, ok := sc.pend.findPiece(kind, s, seg, g); ok {
			// Counted as remapped, as it would be by any other worker.
			sc.encoded += int(n)
			*out = piece{in: inPend, off: off, n: n}
			return nil
		}
	}
	b, err := sc.remap.remap(r.cfg, kind, seg, src, r.remaps[g])
	if err != nil {
		return err
	}
	sc.encoded += len(b)
	if buffer {
		off, ok := sc.pend.addPiece(pos, ord, kind, s, seg, g, b)
		if !ok {
			return fmt.Errorf("mc: a worker's remapped pieces outgrew their 32-bit offsets in one layer")
		}
		*out = piece{in: inPend, off: off, n: uint32(len(b))}
	} else {
		*out = piece{in: inMade, off: uint32(len(sc.made)), n: uint32(len(b))}
		sc.made = append(sc.made, b...)
	}
	return nil
}
