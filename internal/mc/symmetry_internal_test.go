package mc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"teapot/internal/cont"
	"teapot/internal/lower"
	"teapot/internal/parser"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// TestEnumerateGroup pins the admissible group orders for the shapes the
// docs quote: permutations must map homes onto homes, so with one block
// every element fixes its home node and permutes only the others. The
// brute force below enumerates with permutations, whose order is pinned
// first against a literal.
func TestEnumerateGroup(t *testing.T) {
	want3 := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	if got := permutations(3); !slices.EqualFunc(got, want3, slices.Equal) {
		t.Fatalf("permutations(3) = %v, want %v", got, want3)
	}
	for _, tc := range []struct {
		nodes, blocks, want int
	}{
		{2, 1, 1},    // must fix node 0: identity only
		{3, 1, 2},    // swap nodes 1,2
		{4, 1, 6},    // S3 on nodes 1..3
		{3, 2, 2},    // swap blocks 0,1 together with homes 0,1
		{4, 2, 4},    // block swap × swap of non-home nodes 2,3
		{2, 4, 8},    // two blocks per home: swap homes × swap within each pair
		{6, 6, 720},  // every node a home: σ alone decides π
		{8, 1, 5040}, // S7 on the non-home nodes
	} {
		cfg := &Config{Nodes: tc.nodes, Blocks: tc.blocks}
		home := func(b int) int { return runtime.HomeOf(b, tc.nodes) }
		group := enumerateGroup(cfg)
		if len(group) != tc.want {
			t.Errorf("%dn/%db: group order %d, want %d", tc.nodes, tc.blocks, len(group), tc.want)
		}
		if !group[0].identity() {
			t.Errorf("%dn/%db: group[0] is not the identity", tc.nodes, tc.blocks)
		}
		if tc.want <= 8 {
			// The enumeration is the brute-force filter over the full
			// σ × π product, both lexicographic, element for element.
			var want []*perm
			for _, sigma := range permutations(tc.blocks) {
				for _, pi := range permutations(tc.nodes) {
					g := &perm{node: pi, blk: sigma}
					ok := true
					for b := 0; b < tc.blocks; b++ {
						ok = ok && pi[home(b)] == home(sigma[b])
					}
					if ok {
						want = append(want, g)
					}
				}
			}
			for i := range want {
				if i < len(group) && !(slices.Equal(group[i].node, want[i].node) && slices.Equal(group[i].blk, want[i].blk)) {
					t.Errorf("%dn/%db: group[%d] = %v, brute force has %v", tc.nodes, tc.blocks, i, group[i], want[i])
				}
			}
		}
		for _, g := range group {
			for b := 0; b < tc.blocks; b++ {
				if g.node[home(b)] != home(g.blk[b]) {
					t.Fatalf("%dn/%db: inadmissible element %v", tc.nodes, tc.blocks, g)
				}
			}
		}
	}
}

// pingSource is a minimal symmetric protocol compiled inside this package
// (the bundled protocols import core, which imports mc): every non-home
// node pings the home once and the home answers.
const pingSource = `
protocol Ping begin
  state Cache_Inv();
  state Cache_Done();
  state Home();

  message PING_FAULT;
  message PING;
  message PONG;
end;

state Ping.Cache_Inv()
begin
  message PING_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PING, id);
    SetState(info, Cache_Done{});
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("unexpected msg in Cache_Inv");
  end;
end;

state Ping.Cache_Done()
begin
  message PONG (id : ID; var info : INFO; src : NODE)
  begin
    Drop();
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("unexpected msg in Cache_Done");
  end;
end;

state Ping.Home()
begin
  message PING (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, PONG, id);
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("unexpected msg to Home");
  end;
end;
`

// compilePing mirrors core.Compile without importing core.
func compilePing(t *testing.T) *runtime.Protocol { return compileTest(t, pingSource) }

// compileTest compiles a protocol whose home starts in state Home and
// whose caches start in Cache_Inv, as core.Compile would.
func compileTest(t testing.TB, src string) *runtime.Protocol {
	t.Helper()
	prog, err := parser.Parse("test.tea", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	irp := lower.Lower(sp)
	cont.Transform(irp, cont.Optimized)
	p := &runtime.Protocol{IR: irp}
	p.HomeStart = p.StateIndex("Home")
	p.CacheStart = p.StateIndex("Cache_Inv")
	return p
}

type pingEvents struct{ tag int }

func (e *pingEvents) Enabled(w *World, node, block int) []Event {
	if w.IsHome(node, block) || w.StateName(node, block) != "Cache_Inv" {
		return nil
	}
	return []Event{{Name: "PING_FAULT", Tag: e.tag}}
}

func (e *pingEvents) SymmetricEvents() {}

// TestCanonicalFixpoint walks the full reachable space of the ping
// protocol and checks, for every reachable world, the two properties the
// visited table relies on:
//
//   - orbit invariance: every permuted image of a world canonicalizes to
//     the same key, so an orbit can never occupy two arena slots;
//   - fixpoint: decoding a canonical key and re-canonicalizing returns the
//     key itself, so arena keys (and the fingerprints derived from them)
//     are stable representatives.
func TestCanonicalFixpoint(t *testing.T) {
	p := compilePing(t)
	cfg := Config{
		Proto:    p,
		Nodes:    4, // |G| = 6: every early abort has several losers to drop
		Blocks:   1,
		Symmetry: SymmetryOn,
	}
	cfg.Events = &pingEvents{tag: p.MsgIndex("PING_FAULT")}
	cfg.normalize()
	red := reduce(t, &cfg)
	if len(red.group) != 6 {
		t.Fatalf("group order %d, want 6", len(red.group))
	}

	seen := map[string]bool{}
	queue := []*World{newWorld(&cfg)}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		key, err := canonKey(red, w)
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		if len(seen) > 500 {
			t.Fatal("ping state space exploded; protocol or reduction broken")
		}
		for gi, g := range red.group {
			k, err := canonKey(red, red.permuteWorld(w, g))
			if err != nil {
				t.Fatal(err)
			}
			if k != key {
				t.Fatalf("orbit split: image under group[%d] canonicalizes to a different key", gi)
			}
		}
		cw, err := cfg.decode(key)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := canonKey(red, cw)
		if err != nil {
			t.Fatal(err)
		}
		if k2 != key {
			t.Fatal("canonical key is not a fixpoint")
		}
		for _, a := range w.actions() {
			wa, err := w.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if err := wa.apply(a); err != nil {
				t.Fatalf("ping protocol error: %v", err)
			}
			queue = append(queue, wa)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("only %d reachable orbits; event generator inert", len(seen))
	}
	t.Logf("%d canonical orbits, all fixpoints", len(seen))
}

// reduce builds cfg's reduction over an empty remap table, as Check does,
// or fails the test.
func reduce(t *testing.T, cfg *Config) *reduction {
	t.Helper()
	red, note, err := buildReduction(cfg)
	if err != nil || red == nil {
		t.Fatalf("buildReduction: %v (note %q)", err, note)
	}
	red.table = newRemapTable(newVisited(), len(red.group))
	return red
}

// canonKey canonicalizes through a fresh worker's scratch and returns the
// key as a string, for tests that keep keys across calls.
func canonKey(red *reduction, w *World) (string, error) {
	var wk worker
	wk.worlds(red.cfg)
	k, err := wk.keys.key(w, red, nil)
	if err != nil {
		return "", err
	}
	return string(k.Bytes()), nil
}

// ---- The reference the streaming encoder is tested against ----
//
// permuteWorld is how canonicalization worked before the encoder learned
// to remap: build the whole image of the world under g, then encode it
// plainly. It stays here as the executable definition of "the encoding of
// the permuted world" — slow, obviously right, and independent of
// runtime.Remap.

// maskSlots recovers the node-bitmask slots buildReduction resolved.
func (r *reduction) maskSlots() []int {
	if len(r.remaps) < 2 {
		return nil
	}
	return r.remaps[1].MaskSlots
}

// permValue maps identity-typed scalars through g and deep-copies value
// containers (state values, continuations) so the result never aliases
// mutable structure with the original.
func (r *reduction) permValue(v vm.Value, g *perm) vm.Value {
	switch v.Kind {
	case vm.KNode:
		if v.Int >= 0 && int(v.Int) < len(g.node) {
			v.Int = int64(g.node[v.Int])
		}
	case vm.KID:
		if v.Int >= 0 && int(v.Int) < len(g.blk) {
			v.Int = int64(g.blk[v.Int])
		}
	case vm.KState:
		if s := v.State(); s != nil {
			ns := &vm.StateVal{State: s.State}
			if len(s.Args) > 0 {
				ns.Args = make([]vm.Value, len(s.Args))
				for i, a := range s.Args {
					ns.Args[i] = r.permValue(a, g)
				}
			}
			v.Ref = ns
		}
	case vm.KCont:
		if c := v.Cont(); c != nil {
			nc := &vm.Cont{Fn: c.Fn, Frag: c.Frag, Site: c.Site, Heap: c.Heap}
			if len(c.Saved) > 0 {
				nc.Saved = make([]vm.Value, len(c.Saved))
				for i, a := range c.Saved {
					nc.Saved[i] = r.permValue(a, g)
				}
			}
			v.Ref = nc
		}
	}
	return v
}

func (r *reduction) permStateVal(s *vm.StateVal, g *perm) *vm.StateVal {
	return r.permValue(vm.StateValue(s), g).State()
}

// permVars maps a block's protocol variables: element-wise by value kind,
// then bit-wise re-indexing for the declared node-bitmask slots.
func (r *reduction) permVars(vars []vm.Value, g *perm) []vm.Value {
	out := make([]vm.Value, len(vars))
	for i, v := range vars {
		out[i] = r.permValue(v, g)
	}
	for _, slot := range r.maskSlots() {
		v := vars[slot]
		var mask int64
		for bit := 0; bit < 64; bit++ {
			if v.Int&(1<<bit) == 0 {
				continue
			}
			if bit < len(g.node) {
				mask |= 1 << g.node[bit]
			} else {
				mask |= 1 << bit
			}
		}
		v.Int = mask
		out[slot] = v
	}
	return out
}

func (r *reduction) permMessage(m *runtime.Message, g *perm) *runtime.Message {
	nm := &runtime.Message{Tag: m.Tag, ID: m.ID, Src: m.Src, Data: m.Data, Val: m.Val}
	if nm.ID >= 0 && nm.ID < len(g.blk) {
		nm.ID = g.blk[nm.ID]
	}
	if nm.Src >= 0 && nm.Src < len(g.node) {
		nm.Src = g.node[nm.Src]
	}
	if len(m.Payload) > 0 {
		nm.Payload = make([]vm.Value, len(m.Payload))
		for i, v := range m.Payload {
			nm.Payload[i] = r.permValue(v, g)
		}
	}
	return nm
}

// permuteWorld builds the image of w under g: node n's engine state moves
// to node g.node[n], block b's to slot g.blk[b], channels move end-to-end
// with message order preserved, and every embedded identity value is
// mapped. Fault budgets are permutation-invariant and copy through. The
// result shares no mutable structure with w.
func (r *reduction) permuteWorld(w *World, g *perm) *World {
	cfg := w.cfg
	pw := newWorld(cfg)
	for n := 0; n < cfg.Nodes; n++ {
		for b := 0; b < cfg.Blocks; b++ {
			src := w.engines[n].Blocks[b]
			dst := pw.engines[g.node[n]].Blocks[g.blk[b]]
			dst.State = r.permStateVal(src.State, g)
			dst.Vars = r.permVars(src.Vars, g)
			dst.Deferred = nil
			if len(src.Deferred) > 0 {
				dst.Deferred = make([]*runtime.Message, len(src.Deferred))
				for i, m := range src.Deferred {
					dst.Deferred[i] = r.permMessage(m, g)
				}
			}
			pw.access[g.node[n]*cfg.Blocks+g.blk[b]] = w.access[n*cfg.Blocks+b]
		}
	}
	for from := 0; from < cfg.Nodes; from++ {
		for to := 0; to < cfg.Nodes; to++ {
			msgs := w.channels[from*cfg.Nodes+to]
			if len(msgs) == 0 {
				continue // newWorld channels start empty
			}
			out := make([]*runtime.Message, len(msgs))
			for i, m := range msgs {
				out[i] = r.permMessage(m, g)
			}
			pw.channels[g.node[from]*cfg.Nodes+g.node[to]] = out
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		s := w.stalled[n]
		if s >= 0 {
			s = g.blk[s]
		}
		pw.stalled[g.node[n]] = s
	}
	pw.drops, pw.dups = w.drops, w.dups
	pw.sendErr = w.sendErr
	return pw
}

// ---- Helpers the external tests (package mc_test, which may import the
// bundled protocols; this package may not) drive with real configurations.

// StreamFeatures records which of the structures the remap must reach a
// walk actually put under the encoder, so a test can insist that the
// equivalence it observed was not vacuous.
type StreamFeatures struct {
	Worlds       int
	MaskBits     bool // a declared node-bitmask slot was non-zero
	ContIdentity bool // a KNode or KID value sat inside a continuation
	DeferredMsg  bool // a deferred queue held a message
	Stalled      bool // some node was stalled
	InFlight     bool // a channel held a message
}

// Merge folds another walk's observations into f.
func (f *StreamFeatures) Merge(o StreamFeatures) {
	f.Worlds += o.Worlds
	f.MaskBits = f.MaskBits || o.MaskBits
	f.ContIdentity = f.ContIdentity || o.ContIdentity
	f.DeferredMsg = f.DeferredMsg || o.DeferredMsg
	f.Stalled = f.Stalled || o.Stalled
	f.InFlight = f.InFlight || o.InFlight
}

// contHoldsIdentity reports whether v nests a KNode/KID inside a KCont.
func contHoldsIdentity(v vm.Value, inCont bool) bool {
	switch v.Kind {
	case vm.KNode, vm.KID:
		return inCont
	case vm.KState:
		if s := v.State(); s != nil {
			for _, a := range s.Args {
				if contHoldsIdentity(a, inCont) {
					return true
				}
			}
		}
	case vm.KCont:
		if c := v.Cont(); c != nil {
			for _, a := range c.Saved {
				if contHoldsIdentity(a, true) {
					return true
				}
			}
		}
	}
	return false
}

func (f *StreamFeatures) observe(w *World, maskSlots []int) {
	f.Worlds++
	for _, e := range w.engines {
		for _, b := range e.Blocks {
			for _, slot := range maskSlots {
				f.MaskBits = f.MaskBits || b.Vars[slot].Int != 0
			}
			f.ContIdentity = f.ContIdentity || contHoldsIdentity(vm.StateValue(b.State), false)
			for _, v := range b.Vars {
				f.ContIdentity = f.ContIdentity || contHoldsIdentity(v, false)
			}
			f.DeferredMsg = f.DeferredMsg || len(b.Deferred) > 0
		}
	}
	f.Stalled = f.Stalled || w.anyStalled()
	f.InFlight = f.InFlight || !w.networkEmpty()
}

// randomWalk takes seeded random walks from the initial state (walks of at
// most steps actions each; a walk ends early at a dead end, a protocol
// error or an invariant violation) and calls visit on every world reached.
func randomWalk(cfg *Config, seed int64, walks, steps int, visit func(w *World)) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < walks; i++ {
		w := newWorld(cfg)
		visit(w)
		for s := 0; s < steps; s++ {
			acts := w.actions()
			if len(acts) == 0 {
				break
			}
			a := acts[rng.Intn(len(acts))]
			wa, err := w.Clone()
			if err != nil {
				return err
			}
			if wa.apply(a) != nil || wa.checkInvariants() != "" {
				break
			}
			w = wa
			visit(w)
		}
	}
	return nil
}

// CheckStreamedAgainstReference is the reference-equivalence property of
// the streaming encoder on one configuration: at every world of the walks
// and for every group element g, the remapped encode of w equals the plain
// encode of permuteWorld(w, g) byte for byte, and canonicalize returns the
// reference minimum.
func CheckStreamedAgainstReference(t *testing.T, cfg Config, seed int64, walks, steps int) StreamFeatures {
	t.Helper()
	cfg.normalize()
	cfg.Symmetry = SymmetryOn
	red := reduce(t, &cfg)
	var feat StreamFeatures
	err := randomWalk(&cfg, seed, walks, steps, func(w *World) {
		if !t.Failed() {
			feat.observe(w, red.maskSlots())
			checkWorldAgainstReference(t, red, w, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return feat
}

// checkWorldAgainstReference compares, for one world, every remapped encode
// and — with canon set — the canonicalization result with the permuteWorld
// reference.
func checkWorldAgainstReference(t *testing.T, red *reduction, w *World, canon bool) {
	t.Helper()
	var enc, plain keyBuf
	wantKey := ""
	for i, g := range red.group {
		plain.Reset(nil)
		if err := red.permuteWorld(w, g).encodeTo(&plain); err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		ref := string(plain.Bytes())
		enc.Reset(red.remaps[i])
		if err := w.encodeTo(&enc); err != nil {
			t.Fatalf("streamed encode: %v", err)
		}
		if string(enc.Bytes()) != ref || !slices.Equal(enc.ends, plain.ends) {
			t.Errorf("group[%d] = %v: streamed encoding differs from permuteWorld's\n streamed  %x ends %v\n reference %x ends %v",
				i, g, enc.Bytes(), enc.ends, ref, plain.ends)
			return
		}
		if i == 0 || ref < wantKey {
			wantKey = ref
		}
	}
	if !canon {
		return
	}
	key, err := canonKey(red, w)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if key != wantKey {
		t.Errorf("canonicalize returned a key other than the reference minimum\n got  %x\n want %x", key, wantKey)
	}
}

// MidRunWorld returns the world a seeded random walk of the given length
// ends in, for tests that need a state with traffic in it.
func MidRunWorld(t *testing.T, cfg *Config, seed int64, steps int) *World {
	t.Helper()
	cfg.normalize()
	var last *World
	if err := randomWalk(cfg, seed, 1, steps, func(w *World) { last = w }); err != nil {
		t.Fatal(err)
	}
	return last
}

// Canonicalizer returns a function that canonicalizes a world of cfg into
// one reused scratch, the way a checker worker does, over a remap table
// warmed for it: the world's plain segments interned, and the pieces its
// first canonicalization remapped absorbed at a barrier.
func Canonicalizer(t *testing.T, cfg *Config) func(w *World) error {
	t.Helper()
	cfg.normalize()
	cfg.Symmetry = SymmetryOn
	red := reduce(t, cfg)
	if len(red.group) < 2 {
		t.Fatalf("trivial group: nothing to canonicalize")
	}
	vt := red.table.segs
	wk := []worker{{}}
	wk[0].worlds(cfg)
	sc := &wk[0].keys
	warmed := false
	return func(w *World) error {
		if !warmed {
			kb, err := sc.plain(w, nil, nil, nil)
			if err != nil {
				return err
			}
			if _, err := vt.addRoot(kb, wk); err != nil {
				return err
			}
			if err := red.canonicalize(sc, 0, 0); err != nil {
				return err
			}
			if err := red.absorb(wk); err != nil {
				return err
			}
			if red.table.pieces == 0 {
				return errors.New("warming the remap table filled no piece")
			}
			warmed = true
		}
		_, err := sc.key(w, red, nil)
		return err
	}
}

// TestStreamedEncodingPing runs the reference-equivalence property on the
// in-package fixture at |G| = 6 (the bundled protocols are covered from
// package mc_test, which can import them).
func TestStreamedEncodingPing(t *testing.T) {
	p := compilePing(t)
	cfg := Config{Proto: p, Nodes: 4, Blocks: 1}
	cfg.Events = &pingEvents{tag: p.MsgIndex("PING_FAULT")}
	feat := CheckStreamedAgainstReference(t, cfg, 1, 20, 12)
	if !feat.InFlight || feat.Worlds < 100 {
		t.Errorf("walks too shallow to mean anything: %+v", feat)
	}
}

// TestStreamedEncodingPlantedIdentities: no bundled protocol keeps a block
// id alive across a suspend, so the walks never put a KID inside a
// continuation or a queued payload. This world is planted rather than
// reached — the encoder does not care — with node and block ids at every
// nesting the remap must descend into, on a shape (4 nodes / 2 blocks,
// |G| = 4) where both permutations are non-trivial and two nodes stall.
// Canonicalization decodes each segment it remaps, and Ping has no suspend
// site for a planted continuation to name, so it is checked on a second
// planting whose ids nest in state values instead of continuations.
func TestStreamedEncodingPlantedIdentities(t *testing.T) {
	p := compilePing(t)
	cfg := Config{Proto: p, Nodes: 4, Blocks: 2, Symmetry: SymmetryOn}
	cfg.normalize()
	red := reduce(t, &cfg)
	if len(red.group) != 4 {
		t.Fatalf("group order %d, want 4", len(red.group))
	}
	for _, conts := range []bool{true, false} {
		plantIdentities(t, red, &cfg, conts)
	}
}

// plantIdentities plants the world TestStreamedEncodingPlantedIdentities
// checks, its ids nested in continuations or, if not conts, in state
// values, and checks it.
func plantIdentities(t *testing.T, red *reduction, cfg *Config, conts bool) {
	w := newWorld(cfg)
	ids := func(n, b int) vm.Value {
		saved := []vm.Value{
			vm.NodeVal(n), vm.IDVal(b),
			vm.StateValue(&vm.StateVal{State: b, Args: []vm.Value{vm.IDVal(b), vm.NodeVal(-1)}}),
		}
		if !conts {
			return vm.StateValue(&vm.StateVal{State: n % 3, Args: saved})
		}
		return vm.ContVal(&vm.Cont{Site: n, Saved: saved})
	}
	for n, e := range w.engines {
		for b, blk := range e.Blocks {
			blk.State = &vm.StateVal{State: blk.State.State, Args: []vm.Value{ids(n, b)}}
			blk.Deferred = []*runtime.Message{
				{Tag: 1, ID: b, Src: (n + 1) % cfg.Nodes, Payload: []vm.Value{vm.IDVal(b), ids(n, 1-b)}},
			}
		}
		w.channels[n*cfg.Nodes+(n+2)%cfg.Nodes] = []*runtime.Message{
			{Tag: 2, ID: n % 2, Src: n, Payload: []vm.Value{vm.NodeVal(n), vm.IDVal(n % 2)}},
			{Tag: 1, ID: 1 - n%2, Src: n},
		}
	}
	w.access[2*cfg.Blocks+1] = sema.AccReadOnly
	w.stalled[2], w.stalled[1] = 1, 0
	checkWorldAgainstReference(t, red, w, !conts)
}

// pendPieces counts the pieces p buffers by what each is an image of: its
// kind, its group element and its segment (a source id, or the bytes).
func pendPieces(p *pendIndex) map[string]int {
	out := map[string]int{}
	for e := p.b; len(e) > 0; {
		_, w := binary.Uvarint(e)
		_, w2 := binary.Uvarint(e[w:])
		kind, g, sid, sourced, src, _, rest := readPend(e[w+w2:])
		out[fmt.Sprintf("%d/%d/%v/%d/%x", kind, g, sourced, sid, src)]++
		e = rest
	}
	return out
}

// TestOnTheSpotPiecesBufferedOnce: a piece the remap table lacks is remapped
// on the spot once and buffered in the worker's pendIndex, where every later
// key finds it until a barrier absorbs it — on the two paths that key
// outside a layer as on the layer's own: the root key, keyed again and
// again and then its successors' keys, which share its untouched segments,
// and a counterexample replay, run twice over an empty table. Each piece is
// buffered once, and keying what was keyed before buffers nothing more.
func TestOnTheSpotPiecesBufferedOnce(t *testing.T) {
	p := compilePing(t)
	cfg := Config{Proto: p, Nodes: 4, Blocks: 1, Symmetry: SymmetryOn}
	cfg.Events = &pingEvents{tag: p.MsgIndex("PING_FAULT")}
	cfg.normalize()
	once := func(what string, pend *pendIndex) int {
		t.Helper()
		pieces := pendPieces(pend)
		if len(pieces) == 0 {
			t.Fatalf("%s: nothing buffered", what)
		}
		for k, n := range pieces {
			if n != 1 {
				t.Errorf("%s: piece %s buffered %d times", what, k, n)
			}
		}
		return len(pend.b)
	}

	red := reduce(t, &cfg)
	init, err := newWorld(&cfg).encode()
	if err != nil {
		t.Fatal(err)
	}
	var wk worker
	root, err := wk.decode(&cfg, []byte(init))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wk.keys.key(root, red, nil); err != nil {
		t.Fatal(err)
	}
	n := once("root", &wk.keys.pend)
	for range 2 {
		if _, err := wk.keys.key(root, red, nil); err != nil {
			t.Fatal(err)
		}
		if got := once("root again", &wk.keys.pend); got != n {
			t.Fatalf("keying the root again grew the buffer %d → %d bytes", n, got)
		}
	}
	acts := root.actions()
	if len(acts) < 2 {
		t.Fatalf("the root enables %d actions", len(acts))
	}
	for i, a := range acts {
		succ, err := root.branch(a, false, nil, wk.succ)
		if err != nil {
			t.Fatal(err)
		}
		if kind, msg := succ.applyChecked(a); kind != "" {
			t.Fatalf("action %d: %s %s", i, kind, msg)
		}
		if _, err := wk.keys.key(succ, red, nil); err != nil {
			t.Fatal(err)
		}
	}
	once("the root's successors", &wk.keys.pend)

	vt := newVisited()
	if _, err := check(cfg, vt, nil, nil); err != nil {
		t.Fatal(err)
	}
	red.table = newRemapTable(vt, len(red.group))
	var rw worker
	last := int32(vt.states() - 1)
	c := &candidate{kind: "litmus", ord: -1}
	v, err := rw.buildViolation(&cfg, vt, red, last, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Steps) == 0 {
		t.Fatalf("state %d replayed in no steps", last)
	}
	n = once("replay", &rw.keys.pend)
	if _, err := rw.buildViolation(&cfg, vt, red, last, c); err != nil {
		t.Fatal(err)
	}
	if got := once("replay again", &rw.keys.pend); got != n {
		t.Fatalf("replaying again grew the buffer %d → %d bytes", n, got)
	}
}
