package mc

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// InlineLayer lets the external tests see the threshold they test around.
const InlineLayer = inlineLayer

func mustRoot(t *testing.T, vt *visitedTable, key string) []int32 {
	t.Helper()
	layer, err := vt.addRoot([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

func mustClaim(t *testing.T, vt *visitedTable, key string, pos, ord int32) {
	t.Helper()
	if err := vt.claim([]byte(key), pos, ord); err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, vt *visitedTable, layer []int32) []int32 {
	t.Helper()
	next, err := vt.commit(layer)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestVisitedCommitOrder: claims commit in (parent position, action
// ordinal) order, duplicate claims keep the minimum — which only the order
// shows, the store keeping no ordinal — and committed states are recognized
// in later layers.
func TestVisitedCommitOrder(t *testing.T) {
	vt := newVisited()
	layer := mustRoot(t, vt, "root")

	mustClaim(t, vt, "b", 0, 1)
	mustClaim(t, vt, "a", 0, 3)
	mustClaim(t, vt, "a", 0, 0) // duplicate from an earlier action: must win, so a precedes b
	mustClaim(t, vt, "c", 0, 4)
	mustClaim(t, vt, "b", 0, 5) // worse duplicate: must lose, so b precedes c

	next := mustCommit(t, vt, layer)
	var got []string
	for _, idx := range next {
		got = append(got, string(vt.key(idx)))
		if vt.parents[idx] != 0 {
			t.Errorf("parent = %d, want 0", vt.parents[idx])
		}
	}
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("committed %v, want [a b c]", got)
	}

	// Next layer: re-claiming committed states is a no-op.
	mustClaim(t, vt, "a", 1, 0)
	mustClaim(t, vt, "root", 0, 0)
	if got := mustCommit(t, vt, next); len(got) != 0 {
		t.Errorf("re-claimed committed states were committed again: %d", len(got))
	}
}

// TestVisitedFingerprintCollision forces every key onto one fingerprint:
// full-key confirmation must keep distinct states distinct.
func TestVisitedFingerprintCollision(t *testing.T) {
	vt := newVisited()
	vt.hash = func([]byte) uint64 { return 42 }
	layer := mustRoot(t, vt, "root")

	const n = 20
	for i := 0; i < n; i++ {
		mustClaim(t, vt, fmt.Sprintf("s%02d", i), 0, int32(i))
	}
	mustClaim(t, vt, "root", 0, 5) // colliding fingerprint AND previously committed
	next := mustCommit(t, vt, layer)
	if len(next) != n {
		t.Fatalf("committed %d states under total fingerprint collision, want %d", len(next), n)
	}
	for i, idx := range next {
		if want := fmt.Sprintf("s%02d", i); string(vt.key(idx)) != want {
			t.Errorf("commit %d = %q, want %q", i, vt.key(idx), want)
		}
	}
	// All distinct keys re-claimed: every one must be recognized.
	for i := 0; i < n; i++ {
		mustClaim(t, vt, fmt.Sprintf("s%02d", i), 0, 0)
	}
	if got := mustCommit(t, vt, next); len(got) != 0 {
		t.Errorf("collision chain lost committed states: %d re-committed", len(got))
	}
}

// TestShardedVisitedRace hammers the table from many goroutines with
// overlapping keys — run under -race (scripts/check.sh does) — and then
// checks the merge kept the minimum claim for every key regardless of the
// interleaving: key i's claims have ordinals i + keys·m for every m below
// goroutines, so only the minimum, i, commits the keys in ascending order.
func TestShardedVisitedRace(t *testing.T) {
	vt := newVisited()
	layer := mustRoot(t, vt, "root")

	const goroutines = 16
	const keys = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				// Every goroutine claims every key with a different
				// ordinal; the minimum (0, i) must survive.
				ord := i + keys*((g+i)%goroutines)
				if err := vt.claim([]byte(fmt.Sprintf("state-%03d", i)), 0, int32(ord)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	next := mustCommit(t, vt, layer)
	if len(next) != keys {
		t.Fatalf("committed %d states, want %d", len(next), keys)
	}
	for i, idx := range next {
		if want := fmt.Sprintf("state-%03d", i); string(vt.key(idx)) != want {
			t.Errorf("commit %d = %q, want %q: a claim other than the minimum was kept", i, vt.key(idx), want)
		}
	}
}

// modelClaim is one claim of a model-test layer.
type modelClaim struct {
	key      string
	pos, ord int32
}

// modelState is what the reference remembers of a committed state.
type modelState struct {
	key    string
	parent int32
}

// modelStore is the visited table's specification: a map from key to the
// best claim, committed in (pos, ord) order.
type modelStore struct {
	seen    map[string]bool
	pending map[string]modelClaim
	arena   []modelState
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
	}
	clear(m.pending)
	return next
}

// modelLayer draws one layer's claims: mostly new keys of assorted lengths
// (the empty key and one filling a whole chunk among them), with in-layer
// duplicates under other (pos, ord) and re-claims of committed keys mixed
// in. (pos, ord) pairs are unique, as they are in a real layer.
func modelLayer(rng *rand.Rand, m *modelStore, layerLen, chunk int) []modelClaim {
	var claims []modelClaim
	ord := make([]int32, layerLen)
	for n := 20 + rng.Intn(60); n > 0; n-- {
		var key string
		switch r := rng.Intn(10); {
		case r == 0 && len(m.arena) > 0:
			key = m.arena[rng.Intn(len(m.arena))].key
		case r <= 2 && len(claims) > 0:
			key = claims[rng.Intn(len(claims))].key
		case r == 3:
			key = ""
		case r == 4:
			// With its one-byte length prefix this fills a chunk exactly.
			key = strings.Repeat(string(rune('a'+rng.Intn(26))), chunk-1)
		default:
			key = fmt.Sprintf("%0*d", 1+rng.Intn(chunk/2), rng.Intn(1000))
		}
		pos := int32(rng.Intn(layerLen))
		claims = append(claims, modelClaim{key, pos, ord[pos]})
		ord[pos]++
	}
	rng.Shuffle(len(claims), func(i, j int) { claims[i], claims[j] = claims[j], claims[i] })
	return claims
}

// checkAgainstModel compares the table's arena with the reference's.
func checkAgainstModel(t *testing.T, vt *visitedTable, m *modelStore) {
	t.Helper()
	if vt.states() != len(m.arena) {
		t.Fatalf("%d states, reference has %d", vt.states(), len(m.arena))
	}
	for i, want := range m.arena {
		if got := string(vt.key(int32(i))); got != want.key || vt.parents[i] != want.parent {
			t.Fatalf("state %d = %q parent %d, reference has %q parent %d", i, got, vt.parents[i], want.key, want.parent)
		}
	}
	committed := 0
	for i := range vt.shards {
		committed += vt.shards[i].used
	}
	if committed != len(m.arena) {
		t.Fatalf("shard counts sum to %d, want %d", committed, len(m.arena))
	}
}

// TestVisitedModel drives random claim/commit sequences against the table
// and a map-backed reference and requires identical arenas: order, keys
// and parents. The order is where the smallest-ordinal rule shows: a claim
// kept other than the minimum commits out of place. A four-value fingerprint puts every key in
// one of four probe chains (confirming by full key is all that tells them
// apart, and every table doubling happens with pending refs live), and
// 64-byte chunks put a rollover every few states, including keys that end
// exactly on a chunk's last byte. With claimers > 1 each layer's claims are
// dealt to that many goroutines, so under -race this is also the store's
// concurrency test.
func TestVisitedModel(t *testing.T) {
	for _, claimers := range []int{1, 8} {
		t.Run(fmt.Sprintf("claimers=%d", claimers), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				vt := newVisited()
				vt.hash = func(b []byte) uint64 { return uint64(len(b)%4) * (1<<shardShift + 1) }
				vt.chunkSize = 64
				m := &modelStore{seen: map[string]bool{"root": true}, pending: map[string]modelClaim{},
					arena: []modelState{{"root", -1}}}
				layer := mustRoot(t, vt, "root")
				for depth := 0; depth < 12 && len(layer) > 0; depth++ {
					claims := modelLayer(rng, m, len(layer), vt.chunkSize)
					var wg sync.WaitGroup
					for g := 0; g < claimers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := g; i < len(claims); i += claimers {
								c := claims[i]
								if err := vt.claim([]byte(c.key), c.pos, c.ord); err != nil {
									t.Error(err)
								}
							}
						}(g)
					}
					wg.Wait()
					for _, c := range claims {
						m.claim(c)
					}
					next, want := mustCommit(t, vt, layer), m.commit(layer)
					if fmt.Sprint(next) != fmt.Sprint(want) {
						t.Fatalf("seed %d depth %d: next layer %v, reference %v", seed, depth, next, want)
					}
					checkAgainstModel(t, vt, m)
					layer = next
				}
				if len(vt.chunks) < 10 || vt.shards[0].used < 2*minSlots {
					t.Fatalf("seed %d: run too thin: %d chunks, %d states", seed, len(vt.chunks), vt.states())
				}
			}
		})
	}
}

// CheckVisitedAllocs is the store's allocation contract (TestVisitedAllocs
// runs it, where raceEnabled is in reach): looking up a state already seen —
// committed or pending — allocates nothing, and inserting N new states
// allocates per chunk, per table doubling and per slice growth, not per
// state.
func CheckVisitedAllocs(t *testing.T) {
	const n = 1 << 20
	keys := make([]byte, 0, n*24)
	for i := 0; i < n; i++ {
		keys = fmt.Appendf(keys, "state-encoding-%09d", i)
	}
	key := func(i int) []byte { return keys[i*24 : (i+1)*24] }
	mallocs := func() uint64 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	vt := newVisited()
	layer := mustRoot(t, vt, "root")
	before := mallocs()
	for i := 0; i < n; i++ {
		if err := vt.claim(key(i), 0, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	layer = mustCommit(t, vt, layer)
	insert := mallocs() - before
	if len(layer) != n {
		t.Fatalf("committed %d states, want %d", len(layer), n)
	}
	t.Logf("inserting %d states: %d allocations, %d chunks", n, insert, len(vt.chunks))
	if insert >= n/100 {
		t.Errorf("inserting %d states made %d allocations, want fewer than %d", n, insert, n/100)
	}

	mustClaim(t, vt, "pending", 0, 0)
	pending := []byte("pending")
	before = mallocs()
	for i := 0; i < n; i++ {
		vt.claim(key(i), 0, 0)
		vt.claim(pending, 0, 1)
	}
	if hit := mallocs() - before; hit != 0 {
		t.Errorf("claiming seen keys made %d allocations in %d claims, want 0", hit, 2*n)
	}
}

// SpreadStats is what CheckFingerprintSpread measured.
type SpreadStats struct {
	States             int
	ShardMin, ShardMax int
	// Confirms is how many full-key comparisons looking every stored key up
	// again makes, Failed how many of them find another key under the same
	// fingerprint tag.
	Confirms, Failed int
}

// CheckFingerprintSpread explores cfg and looks at how the fingerprint
// spread what the run stored: it fails the test if two distinct keys share
// a 64-bit fingerprint, and reports the shard balance and the full-key
// confirmations that looking every stored key up in the final tables makes
// — each slot on its probe sequence whose tag equals its fingerprint's is
// one, and those holding another state are the failed ones.
func CheckFingerprintSpread(t *testing.T, cfg Config) SpreadStats {
	t.Helper()
	vt := newVisited()
	if _, err := check(cfg, vt); err != nil {
		t.Fatal(err)
	}
	st := SpreadStats{States: vt.states()}
	mins, maxs := vt.shardStats()
	st.ShardMin, st.ShardMax = int(mins), int(maxs)
	owner := make(map[uint64]int32, vt.states())
	for idx := int32(0); idx < int32(vt.states()); idx++ {
		fp := fingerprint(vt.key(idx))
		if other, dup := owner[fp]; dup {
			t.Errorf("states %d and %d share the fingerprint %#x", other, idx, fp)
		}
		owner[fp] = idx
		s := &vt.shards[fp>>shardShift]
		mask := len(s.slots) - 1
		for i := int(fp) & mask; ; i = (i + 1) & mask {
			e := s.slots[i]
			if e == 0 {
				t.Fatalf("state %d is not in its shard's table", idx)
			}
			if e&^refMask != fp<<refBits {
				continue
			}
			st.Confirms++
			if int32(e) == idx+1 {
				break
			}
			st.Failed++
		}
	}
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
		// In one shard, the fifth layer (120 states, so expanded by all the
		// workers) claims 216 successors on top of 204 committed states:
		// the limit is met inside claim, on a worker goroutine.
		{"state index space, pending slab", func(vt *visitedTable) {
			vt.maxStates, vt.hash = 210, func([]byte) uint64 { return 7 }
		}, "32-bit arena indices"},
		{"locator chunks", func(vt *visitedTable) { vt.chunkSize, vt.maxChunks = 256, 3 }, "key locators address at most 3 chunks"},
		{"key longer than a chunk", func(vt *visitedTable) { vt.chunkSize = 16 }, "exceeds the visited store's 16-byte key chunk"},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				vt := newVisited()
				tc.lower(vt)
				c := cfg
				c.Workers = workers
				res, err := check(c, vt)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v (result %+v), want one naming %q", err, res, tc.want)
				}
			})
		}
	}
	// At the limit exactly, the run completes.
	vt := newVisited()
	vt.maxStates = full.States
	if res, err := check(cfg, vt); err != nil || res.States != full.States {
		t.Fatalf("maxStates == reachable states: %+v, err %v", res, err)
	}
}
