package mc

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// InlineLayer lets the external tests see the threshold they test around.
const InlineLayer = inlineLayer

// segmented returns a test key as claim takes it: split at its '|'s, the
// separators left out, none of its segments' ids known.
func segmented(key string) *keyBuf {
	kb := new(keyBuf)
	for i, seg := range strings.Split(key, "|") {
		if i > 0 {
			kb.ends = append(kb.ends, len(kb.Bytes()))
		}
		kb.Raw([]byte(seg))
	}
	return kb
}

// appendIDs appends state idx's segment ids to dst.
func (t *visitedTable) appendIDs(dst []uint32, idx int32) []uint32 {
	_, ids := t.expand(nil, dst, idx)
	return ids
}

// keyOf returns state idx's key.
func keyOf(vt *visitedTable, idx int32) string {
	key, _ := vt.expand(nil, nil, idx)
	return string(key)
}

func mustRoot(t *testing.T, vt *visitedTable, ws []worker, key string) []int32 {
	t.Helper()
	layer, err := vt.addRoot(segmented(key), ws)
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// mustClaim claims key in wk's buffer; a worker claims in (pos, ord) order.
func mustClaim(t *testing.T, vt *visitedTable, wk *worker, key string, pos, ord int32) {
	t.Helper()
	if err := vt.claim(&wk.claims, segmented(key), pos, ord); err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, vt *visitedTable, ws []worker, layer []int32) []int32 {
	t.Helper()
	next, err := vt.commit(layer, ws)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestVisitedCommitOrder: claims commit in (parent position, action
// ordinal) order across the workers' buffers, duplicate claims keep the
// minimum — which only the order shows, the store keeping no ordinal —
// whether the duplicates are in one buffer or two, and committed states are
// recognized in later layers.
func TestVisitedCommitOrder(t *testing.T) {
	vt, ws := newVisited(), make([]worker, 2)
	layer := mustRoot(t, vt, ws, "root")

	mustClaim(t, vt, &ws[0], "b", 0, 1)
	mustClaim(t, vt, &ws[0], "a", 0, 3)
	mustClaim(t, vt, &ws[0], "b", 0, 5) // worse duplicate, same buffer: must lose, so b precedes c
	mustClaim(t, vt, &ws[1], "a", 0, 0) // duplicate from an earlier action, other buffer: must win, so a precedes b
	mustClaim(t, vt, &ws[1], "c", 0, 4)

	next := mustCommit(t, vt, ws, layer)
	var got []string
	for _, idx := range next {
		got = append(got, keyOf(vt, idx))
		if vt.parent(idx) != 0 {
			t.Errorf("parent = %d, want 0", vt.parent(idx))
		}
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("committed %v, want [a b c]", got)
	}

	// Next layer: re-claiming committed states is a no-op.
	mustClaim(t, vt, &ws[1], "root", 0, 0)
	mustClaim(t, vt, &ws[0], "a", 1, 0)
	if got := mustCommit(t, vt, ws, next); len(got) != 0 {
		t.Errorf("re-claimed committed states were committed again: %d", len(got))
	}
}

// TestVisitedFingerprintCollision forces every key onto one fingerprint:
// full-key confirmation must keep distinct states distinct.
func TestVisitedFingerprintCollision(t *testing.T) {
	vt, ws := newVisited(), make([]worker, 1)
	vt.hash = func([]byte) uint64 { return 42 }
	layer := mustRoot(t, vt, ws, "root")

	const n = 20
	for i := 0; i < n; i++ {
		mustClaim(t, vt, &ws[0], fmt.Sprintf("s%02d", i), 0, int32(i))
	}
	mustClaim(t, vt, &ws[0], "root", 0, n) // colliding fingerprint AND previously committed
	next := mustCommit(t, vt, ws, layer)
	if len(next) != n {
		t.Fatalf("committed %d states under total fingerprint collision, want %d", len(next), n)
	}
	for i, idx := range next {
		if want := fmt.Sprintf("s%02d", i); keyOf(vt, idx) != want {
			t.Errorf("commit %d = %q, want %q", i, keyOf(vt, idx), want)
		}
	}
	// All distinct keys re-claimed: every one must be recognized.
	for i := 0; i < n; i++ {
		mustClaim(t, vt, &ws[0], fmt.Sprintf("s%02d", i), 0, int32(i))
	}
	if got := mustCommit(t, vt, ws, next); len(got) != 0 {
		t.Errorf("collision chain lost committed states: %d re-committed", len(got))
	}
}

// TestVisitedRace hammers the table from many goroutines with
// overlapping keys — run under -race (scripts/check.sh does) — and then
// checks the barrier kept the minimum claim for every key regardless of the
// interleaving. Each goroutine claims in (pos, ord) order, as a worker does:
// goroutine g claims key i at position (i+g) mod goroutines with ordinal i,
// so every key's minimum is at position 0, in a different goroutine's
// buffer for each key, and only the minima commit the keys in ascending
// order.
func TestVisitedRace(t *testing.T) {
	const goroutines = 16
	const keys = 200
	vt, ws := newVisited(), make([]worker, goroutines)
	layer := mustRoot(t, vt, ws, "root")
	for p := range goroutines {
		mustClaim(t, vt, &ws[0], fmt.Sprintf("parent-%02d", p), 0, int32(p))
	}
	layer = mustCommit(t, vt, ws, layer)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := range goroutines {
				for i := (p - g + goroutines) % goroutines; i < keys; i += goroutines {
					if err := vt.claim(&ws[g].claims, segmented(fmt.Sprintf("state-%03d", i)), int32(p), int32(i)); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	next := mustCommit(t, vt, ws, layer)
	if len(next) != keys {
		t.Fatalf("committed %d states, want %d", len(next), keys)
	}
	for i, idx := range next {
		if want := fmt.Sprintf("state-%03d", i); keyOf(vt, idx) != want || vt.parent(idx) != layer[0] {
			t.Errorf("commit %d = %q parent %d, want %q parent %d: a claim other than the minimum was kept", i, keyOf(vt, idx), vt.parent(idx), want, layer[0])
		}
	}
}

// modelClaim is one claim of a model-test layer: key is its segments
// concatenated, each a length byte and that many bytes, so that — like a
// canonical encoding — where each segment ends is a function of the bytes.
// Bit k of copied says segment k is the parent's, as encodeVia would.
type modelClaim struct {
	key      string
	pos, ord int32
	copied   uint64
}

// modelSegs splits a model key into its segments.
func modelSegs(key string) []string {
	var segs []string
	for key != "" {
		n := 1 + int(key[0])
		segs, key = append(segs, key[:n]), key[n:]
	}
	return segs
}

// modelState is what the reference remembers of a committed state.
type modelState struct {
	key    string
	parent int32
}

// modelStore is the visited table's specification: a map from key to the
// best claim, committed in (pos, ord) order, and a map from segment to id,
// ids handed out in the order committed keys first use them.
type modelStore struct {
	seen    map[string]bool
	pending map[string]modelClaim
	arena   []modelState
	ids     map[string]uint32
}

func (m *modelStore) claim(c modelClaim) {
	if m.seen[c.key] {
		return
	}
	if p, ok := m.pending[c.key]; ok && (p.pos < c.pos || p.pos == c.pos && p.ord <= c.ord) {
		return
	}
	m.pending[c.key] = c
}

func (m *modelStore) commit(layer []int32) []int32 {
	claims := make([]modelClaim, 0, len(m.pending))
	for _, c := range m.pending {
		claims = append(claims, c)
	}
	sort.Slice(claims, func(i, j int) bool {
		return claims[i].pos < claims[j].pos || claims[i].pos == claims[j].pos && claims[i].ord < claims[j].ord
	})
	var next []int32
	for _, c := range claims {
		next = append(next, int32(len(m.arena)))
		m.arena = append(m.arena, modelState{c.key, layer[c.pos]})
		m.seen[c.key] = true
		for _, seg := range modelSegs(c.key) {
			if _, ok := m.ids[seg]; !ok {
				m.ids[seg] = uint32(len(m.ids))
			}
		}
	}
	clear(m.pending)
	return next
}

// modelSeg draws a segment: mostly one of a few dozen shared ones — the
// same bytes at any of a key's three positions, the empty body and a
// segment filling a whole chunk among them — and sometimes one no key had.
func modelSeg(rng *rand.Rand, fresh *int, chunk int) string {
	var body string
	switch r := rng.Intn(10); {
	case r == 0:
		*fresh++
		body = fmt.Sprintf("fresh-%d", *fresh)
	case r == 1:
		body = ""
	case r == 2:
		// With its length byte this fills a chunk exactly.
		body = strings.Repeat(string(rune('a'+rng.Intn(3))), chunk-1)
	default:
		body = fmt.Sprintf("%0*d", 1+rng.Intn(chunk/2), rng.Intn(8))
	}
	return string(rune(len(body))) + body
}

// modelLayer draws one layer's claims: mostly new keys of three segments
// — fresh, or the parent's with one or two replaced, the rest marked
// copied or not at random — with in-layer duplicates under other (pos, ord)
// (marking their copied segments afresh), re-claims of committed keys, and
// pairs of new keys sharing a segment no committed key has mixed in. (pos,
// ord) pairs are unique, as they are in a real layer.
func modelLayer(rng *rand.Rand, m *modelStore, layer []int32, chunk int, fresh *int) []modelClaim {
	var claims []modelClaim
	ord := make([]int32, len(layer))
	add := func(key string, pos int32) {
		var copied uint64
		for k, seg := range modelSegs(m.arena[layer[pos]].key)[:2] { // never the tail
			if modelSegs(key)[k] == seg && rng.Intn(2) == 0 {
				copied |= 1 << k
			}
		}
		claims = append(claims, modelClaim{key, pos, ord[pos], copied})
		ord[pos]++
	}
	for n := 20 + rng.Intn(60); n > 0; n-- {
		pos := int32(rng.Intn(len(layer)))
		switch r := rng.Intn(10); {
		case r == 0 && len(m.arena) > 0:
			add(m.arena[rng.Intn(len(m.arena))].key, pos)
		case r <= 2 && len(claims) > 0:
			add(claims[rng.Intn(len(claims))].key, pos)
		case r == 3:
			*fresh++
			shared := fmt.Sprintf("\x07shared%d", *fresh%10)
			add(modelSeg(rng, fresh, chunk)+shared+modelSeg(rng, fresh, chunk), pos)
			add(shared+modelSeg(rng, fresh, chunk)+modelSeg(rng, fresh, chunk), int32(rng.Intn(len(layer))))
		case r <= 6:
			segs := modelSegs(m.arena[layer[pos]].key)
			for range 1 + rng.Intn(2) {
				segs[rng.Intn(3)] = modelSeg(rng, fresh, chunk)
			}
			add(strings.Join(segs, ""), pos)
		default:
			add(modelSeg(rng, fresh, chunk)+modelSeg(rng, fresh, chunk)+modelSeg(rng, fresh, chunk), pos)
		}
	}
	rng.Shuffle(len(claims), func(i, j int) { claims[i], claims[j] = claims[j], claims[i] })
	return claims
}

// modelKey returns a model claim as claim takes it: its copied segments
// lent the ids from holds, the parent's, as encodeVia lends them.
func modelKey(c modelClaim, from []uint32) *keyBuf {
	kb := &keyBuf{ids: make([]uint32, 3)}
	kb.Raw([]byte(c.key))
	n := 0
	for _, seg := range modelSegs(c.key)[:2] {
		n += len(seg)
		kb.ends = append(kb.ends, n)
	}
	for k := range 3 {
		if c.copied&(1<<k) != 0 {
			kb.know(k, from[k])
		}
	}
	return kb
}

// checkAgainstModel compares the table's arena and intern table with the
// reference's: each state's key, parent, and the ids its record holds.
func checkAgainstModel(t *testing.T, vt *visitedTable, m *modelStore) {
	t.Helper()
	if vt.states() != len(m.arena) {
		t.Fatalf("%d states, reference has %d", vt.states(), len(m.arena))
	}
	for i, want := range m.arena {
		if got := keyOf(vt, int32(i)); got != want.key || vt.parent(int32(i)) != want.parent {
			t.Fatalf("state %d = %q parent %d, reference has %q parent %d", i, got, vt.parent(int32(i)), want.key, want.parent)
		}
		rec := vt.record(int32(i))
		for k, seg := range modelSegs(want.key) {
			id, w := nextID(rec)
			rec = rec[w:]
			if id != m.ids[seg] {
				t.Fatalf("state %d segment %d has id %d, reference %d", i, k, id, m.ids[seg])
			}
		}
	}
	var segBytes int64
	for seg := range m.ids {
		segBytes += int64(len(seg))
	}
	if len(vt.intern.refs) != len(m.ids) || vt.intern.size != segBytes {
		t.Fatalf("%d segments of %d bytes interned, reference has %d of %d", len(vt.intern.refs), vt.intern.size, len(m.ids), segBytes)
	}
	if vt.slots.used != len(m.arena) {
		t.Fatalf("the table holds %d states, want %d", vt.slots.used, len(m.arena))
	}
}

// TestVisitedModel drives random claim/commit sequences against the table
// and a map-backed reference and requires identical arenas — order, keys
// and parents — and identical segment ids. The order is where the
// smallest-ordinal rule shows: a claim kept other than the minimum commits
// out of place. Keys are three segments drawn from a small shared pool, so
// most segments are already interned when a key commits; many are their
// parent's with one or two segments replaced and some of the rest marked
// copied, lent the parent's ids as a worker lends them; and new keys
// sharing a segment no committed key has are claimed in the same layer:
// the reference hands out ids in commit order, so a segment interned twice
// or in claim order shows. A four-value fingerprint puts every key and
// every segment in one of four probe chains (comparing bytes is all that
// tells them apart), and 64-byte chunks put a rollover every few states,
// including segments that end exactly on a chunk's last byte. Each layer's
// positions are dealt at random to claimers goroutines, each claiming its
// positions' claims in (pos, ord) order, as expandLayer's workers do: so
// with one claimer every duplicate is within its buffer, and with 8 most
// are across buffers; under -race this is also the store's concurrency
// test, and ids assigned at the barrier must not depend on the claimers.
//
// Mutations that must each fail it (tried when it was written, again when
// keys began carrying their known ids, and again when claims went into
// per-worker buffers): equal accepting a known segment whose id is the
// key's at any position rather than at its own, or comparing the segment
// after a known one from one byte early; claim describing a known segment
// by the id of the segment before it; expand reading each id as the next
// one; a duplicate within a buffer replacing the entry it found; and a
// barrier absorbing the buffers in worker order, or not probing the table
// for keys that an earlier buffer committed.
func TestVisitedModel(t *testing.T) {
	for _, claimers := range []int{1, 8} {
		t.Run(fmt.Sprintf("claimers=%d", claimers), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				vt, ws := newVisited(), make([]worker, claimers)
				vt.hash = func(b []byte) uint64 { return uint64(len(b) % 4) }
				vt.intern.arena.size = 64
				root := "\x01r\x01r\x01r"
				m := &modelStore{seen: map[string]bool{root: true}, pending: map[string]modelClaim{},
					arena: []modelState{{root, -1}}, ids: map[string]uint32{"\x01r": 0}}
				layer, err := vt.addRoot(modelKey(modelClaim{key: root}, nil), ws)
				if err != nil {
					t.Fatal(err)
				}
				fresh := 0
				for depth := 0; depth < 12 && len(layer) > 0; depth++ {
					claims := modelLayer(rng, m, layer, vt.intern.arena.size, &fresh)
					dealt := make([][]modelClaim, claimers)
					owner := rng.Perm(len(layer))
					for _, c := range claims {
						g := owner[c.pos] % claimers
						dealt[g] = append(dealt[g], c)
					}
					var wg sync.WaitGroup
					for g, cs := range dealt {
						sort.Slice(cs, func(i, j int) bool {
							return cs[i].pos < cs[j].pos || cs[i].pos == cs[j].pos && cs[i].ord < cs[j].ord
						})
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for _, c := range cs {
								from := vt.appendIDs(nil, layer[c.pos])
								if err := vt.claim(&ws[g].claims, modelKey(c, from), c.pos, c.ord); err != nil {
									t.Error(err)
								}
							}
						}(g)
					}
					wg.Wait()
					for _, c := range claims {
						m.claim(c)
					}
					next, want := mustCommit(t, vt, ws, layer), m.commit(layer)
					if fmt.Sprint(next) != fmt.Sprint(want) {
						t.Fatalf("seed %d depth %d: next layer %v, reference %v", seed, depth, next, want)
					}
					checkAgainstModel(t, vt, m)
					layer = next
				}
				if len(vt.intern.arena.chunks) < 10 || len(vt.slots.w) < 4*minSlots || len(vt.intern.refs) >= 3*vt.states() {
					t.Fatalf("seed %d: run too thin: %d chunks, %d states, %d segments", seed, len(vt.intern.arena.chunks), vt.states(), len(vt.intern.refs))
				}
			}
		})
	}
}

// CheckVisitedAllocs is the store's allocation contract (TestVisitedAllocs
// runs it, where raceEnabled is in reach): looking up a state already seen —
// committed, or pending in the worker's own buffer — allocates nothing;
// inserting N new states allocates per chunk, per table doubling (the
// store's, the intern table's and the buffer's index) and per buffer or
// slice growth, not per state; and once the arena has room for them, a
// commit no larger than an earlier one allocates nothing: the barrier's
// record and layer buffers are the table's own, and the workers' buffers
// are reused.
func CheckVisitedAllocs(t *testing.T) {
	const n = 1 << 20
	keys := make([]byte, 0, n*12)
	for i := 0; i < n; i++ {
		keys = fmt.Appendf(keys, "a%04db%04dt%d", i&1023, i>>10, i%7)
	}
	var kb keyBuf
	key := func(i int) *keyBuf {
		kb.Reset(nil)
		kb.Raw(keys[i*12 : (i+1)*12])
		kb.ends = append(kb.ends[:0], 5, 10)
		return &kb
	}
	mallocs := func() uint64 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	vt, ws := newVisited(), make([]worker, 1)
	b := &ws[0].claims
	layer := mustRoot(t, vt, ws, "a0000|b0000|t7")
	before := mallocs()
	for i := 0; i < n; i++ {
		if err := vt.claim(b, key(i), 0, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	layer = mustCommit(t, vt, ws, layer)
	insert := mallocs() - before
	if len(layer) != n {
		t.Fatalf("committed %d states, want %d", len(layer), n)
	}
	t.Logf("inserting %d states: %d allocations, %d chunks, %d segments", n, insert, len(vt.intern.arena.chunks), len(vt.intern.refs))
	if insert >= n/400 {
		t.Errorf("inserting %d states made %d allocations, want fewer than %d", n, insert, n/400)
	}

	mustClaim(t, vt, &ws[0], "pending|x|y", 0, 0)
	pending := segmented("pending|x|y")
	before = mallocs()
	for i := 0; i < n; i++ {
		vt.claim(b, key(i), 0, int32(2*i+1))
		vt.claim(b, pending, 0, int32(2*i+2))
	}
	if hit := mallocs() - before; hit != 0 {
		t.Errorf("claiming seen keys made %d allocations in %d claims, want 0", hit, 2*n)
	}
	layer = mustCommit(t, vt, ws, layer)

	// Layers of new states whose segments are all interned, the arena given
	// room for them first: what is left to allocate is the barrier's own.
	const m = 1 << 10
	for round := 1; round <= 3; round++ {
		for len(vt.locs) <= (vt.n+m)>>pageShift {
			vt.locs, vt.parents = append(vt.locs, make([]uint64, 0, pageSize)), append(vt.parents, make([]int32, 0, pageSize))
		}
		vt.intern.arena.chunks = append(vt.intern.arena.chunks, make([]byte, 0, vt.intern.arena.size))
		for i := 0; i < m; i++ {
			mustClaim(t, vt, &ws[0], fmt.Sprintf("a%04d|b%04d|t7", i, round), int32(i%len(layer)), int32(i))
		}
		before = mallocs()
		layer = mustCommit(t, vt, ws, layer)
		if got := mallocs() - before; got != 0 || len(layer) != m {
			t.Errorf("round %d: committing %d states made %d allocations, want 0", round, len(layer), got)
		}
	}
}

// SpreadStats is what CheckFingerprintSpread measured.
type SpreadStats struct {
	States int
	// Buckets is, for the fingerprint's top six bits and for its low six
	// bits (which pick the slot a probe starts at in a table of 64 or
	// more), the fewest and the most stored keys whose fingerprints share
	// one of the 64 values.
	TopMin, TopMax, LowMin, LowMax int
	// Confirms is how many full-key comparisons looking every stored key up
	// again makes, Failed how many of them find another key under the same
	// fingerprint tag.
	Confirms, Failed int
}

// CheckStored is Check that also returns what the visited store holds at the
// end, in arena order: each state's key and the arena index of its parent
// (-1 for the root).
func CheckStored(cfg Config) (res *Result, keys []string, parents []int32, err error) {
	vt := newVisited()
	if res, err = check(cfg, vt, nil, nil); err != nil {
		return nil, nil, nil, err
	}
	for idx := int32(0); idx < int32(vt.states()); idx++ {
		key, _ := vt.expand(nil, nil, idx)
		keys, parents = append(keys, string(key)), append(parents, vt.parent(idx))
	}
	return res, keys, parents, nil
}

// CheckFingerprintSpread explores cfg and looks at how the fingerprint
// spread what the run stored: it fails the test if two distinct keys share
// a 64-bit fingerprint, and reports how evenly the fingerprints fill 64
// buckets by their top and by their low six bits, and the full-key
// confirmations that looking every stored key up in the final table makes
// — each slot on its probe sequence whose tag equals its fingerprint's is
// one, and those holding another state are the failed ones.
func CheckFingerprintSpread(t *testing.T, cfg Config) SpreadStats {
	t.Helper()
	vt := newVisited()
	if _, err := check(cfg, vt, nil, nil); err != nil {
		t.Fatal(err)
	}
	st := SpreadStats{States: vt.states()}
	var top, low [64]int
	owner := make(map[uint64]int32, vt.states())
	for idx := int32(0); idx < int32(vt.states()); idx++ {
		key, _ := vt.expand(nil, nil, idx)
		fp := fingerprint(key)
		if other, dup := owner[fp]; dup {
			t.Errorf("states %d and %d share the fingerprint %#x", other, idx, fp)
		}
		owner[fp] = idx
		top[fp>>58]++
		low[fp&63]++
		for ref, i := vt.slots.find(uint32(fp), int(uint32(fp))); ; ref, i = vt.slots.find(uint32(fp), i) {
			if ref == 0 {
				t.Fatalf("state %d is not in the table", idx)
			}
			st.Confirms++
			if int32(ref) == idx+1 {
				break
			}
			st.Failed++
		}
	}
	st.TopMin, st.TopMax = slices.Min(top[:]), slices.Max(top[:])
	st.LowMin, st.LowMax = slices.Min(low[:]), slices.Max(low[:])
	return st
}

// TestVisitedLimits: running into one of the store's hard limits — the
// int32 state index space, the chunks a key locator can address, the chunk a
// single key must fit — is an error from Check that names the limit, for
// any worker count; never a wrapped index and never a panic in a worker.
func TestVisitedLimits(t *testing.T) {
	p := compilePing(t)
	cfg := Config{Proto: p, Nodes: 7, Blocks: 1, Symmetry: SymmetryOff}
	cfg.Events = &pingEvents{tag: p.MsgIndex("PING_FAULT")}
	full, err := Check(cfg)
	if err != nil || full.Violation != nil || full.States < 100 {
		t.Fatalf("unlimited run: %+v, err %v", full, err)
	}
	for _, tc := range []struct {
		name  string
		lower func(vt *visitedTable)
		want  string
	}{
		{"state index space", func(vt *visitedTable) { vt.maxStates = full.States - 1 }, "32-bit arena indices"},
		{"state index space, one layer's claims", func(vt *visitedTable) { vt.maxStates = 1 }, "32-bit arena indices"},
		{"root alone", func(vt *visitedTable) { vt.maxStates = 0 }, "32-bit arena indices"},
		// Under one fingerprint, the fifth layer (120 states, so expanded
		// by all the workers) claims 216 successors on top of 204
		// committed states: the limit is met inside claim, on a worker
		// goroutine, as soon as a worker holds more new keys than the
		// store has room for.
		{"state index space, a worker's claims", func(vt *visitedTable) {
			vt.maxStates, vt.hash = 210, func([]byte) uint64 { return 7 }
		}, "32-bit arena indices"},
		{"locator chunks", func(vt *visitedTable) { vt.intern.arena.size, vt.intern.arena.most = 256, 3 }, "key locators address at most 3 chunks"},
		{"key longer than a chunk", func(vt *visitedTable) { vt.intern.arena.size = 16 }, "exceeds the visited store's 16-byte key chunk"},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				vt := newVisited()
				tc.lower(vt)
				c := cfg
				c.Workers = workers
				res, err := check(c, vt, nil, nil)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v (result %+v), want one naming %q", err, res, tc.want)
				}
			})
		}
	}
	// At the limit exactly, the run completes.
	vt := newVisited()
	vt.maxStates = full.States
	if res, err := check(cfg, vt, nil, nil); err != nil || res.States != full.States {
		t.Fatalf("maxStates == reachable states: %+v, err %v", res, err)
	}
}
