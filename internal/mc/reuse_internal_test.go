package mc

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// Helpers for the world-reuse tests of package mc_test (which may import
// the bundled protocols; this package may not).

// WalkSnapshots returns the canonical encoding of every world on seeded
// random walks of cfg (see randomWalk), in visiting order.
func WalkSnapshots(t testing.TB, cfg Config, seed int64, walks, steps int) []string {
	t.Helper()
	cfg.normalize()
	var keys []string
	err := randomWalk(&cfg, seed, walks, steps, func(w *World) {
		key, err := w.encode()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// DirtyStats counts the ways CheckDecodeIntoDirtyWorld left its reused
// world before decoding over it, so a test can insist none was vacuous.
type DirtyStats struct {
	Decodes    int
	Applied    int // an action ran on the world to completion
	MidHandler int // an action failed with a protocol error, handler abandoned
	Sinks      int // a coverage sink and a send error were planted
	SharedBare int // a block's argument-less state value was shared with an earlier decode
}

// Merge folds another walk's counts into s.
func (s *DirtyStats) Merge(o DirtyStats) {
	s.Decodes += o.Decodes
	s.Applied += o.Applied
	s.MidHandler += o.MidHandler
	s.Sinks += o.Sinks
	s.SharedBare += o.SharedBare
}

// unexported reads a field of a runtime value the tests have no accessor
// for (the engine's sink, a block's transitioned flag).
func unexported(v any, field string) reflect.Value {
	return reflect.ValueOf(v).Elem().FieldByName(field)
}

// CheckDecodeIntoDirtyWorld is the property that reuse is invisible: along
// seeded random walks of cfg, decodeInto over one world that is never
// rebuilt — and that is left, before each decode, holding a different state
// with an action applied on top (to completion, or abandoned mid-handler by
// a protocol error), with a coverage sink attached to it and its engines,
// and with a send error pending — yields the encoding, the actions and the
// successors of a fresh decode, and carries over no sink, no send error and
// no transitioned flag. It also checks that the argument-less state values
// the decodes share are never written through.
func CheckDecodeIntoDirtyWorld(t *testing.T, cfg Config, seed int64, walks, steps int) DirtyStats {
	t.Helper()
	cfg.normalize()
	keys := WalkSnapshots(t, cfg, seed, walks, steps)
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(&cfg)
	var stats DirtyStats
	// Every shared argument-less state value seen so far, with the state it
	// must still denote at the end.
	bare := map[*vm.StateVal]int{}
	for _, key := range keys {
		// Dirty w: whatever it held, run one more action on it in place,
		// then plant what a coverage-wired branch leaves behind.
		if acts := w.actions(); len(acts) > 0 {
			if err := w.apply(acts[rng.Intn(len(acts))]); err != nil {
				stats.MidHandler++
			} else {
				stats.Applied++
			}
		}
		if rng.Intn(2) == 0 {
			w.setObs(obs.NewCoverage())
			w.sendErr = errors.New("planted")
			stats.Sinks++
		}

		if err := cfg.decodeInto(w, []byte(key)); err != nil {
			t.Fatalf("decodeInto: %v", err)
		}
		stats.Decodes++
		fresh, err := cfg.decode(key)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got, err := w.encode(); err != nil || got != key {
			t.Fatalf("reused world re-encodes differently (err %v)", err)
		}
		if w.obsSink != nil || w.sendErr != nil {
			t.Fatalf("sink %v / send error %v survived decodeInto", w.obsSink, w.sendErr)
		}
		for n, e := range w.engines {
			if e != w.owned[n] {
				t.Fatalf("node %d: reused world still reads another world's engine", n)
			}
			if e.Exec.Tracer != nil || !unexported(e, "obs").IsNil() || e.Exec.Depth() != 0 {
				t.Fatalf("node %d: engine sink, tracer or register stack survived decodeInto", n)
			}
			for _, b := range e.Blocks {
				if unexported(b, "transitioned").Bool() {
					t.Fatalf("node %d block %d: transitioned flag survived decodeInto", n, b.ID)
				}
				if len(b.State.Args) == 0 {
					if _, shared := bare[b.State]; shared {
						stats.SharedBare++
					}
					bare[b.State] = b.State.State
				}
			}
		}
		acts, want := w.actions(), fresh.actions()
		if !reflect.DeepEqual(acts, want) {
			t.Fatalf("reused world enables %v, a fresh decode %v", acts, want)
		}
		for _, a := range acts {
			// The reused world is decoded over again, left as the previous
			// action left it; the fresh one is new each time.
			what := fresh.describe(a)
			if err := cfg.decodeInto(w, []byte(key)); err != nil {
				t.Fatalf("decodeInto: %v", err)
			}
			fs, err := cfg.decode(key)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			errW, errF := w.apply(a), fs.apply(a)
			if (errW == nil) != (errF == nil) {
				t.Fatalf("%s: reused world error %v, fresh world error %v", what, errW, errF)
			}
			if errW != nil {
				continue
			}
			kw, _ := w.encode()
			kf, _ := fs.encode()
			if kw != kf {
				t.Fatalf("%s: reused and fresh worlds reach different states", what)
			}
		}
	}
	for sv, state := range bare {
		if sv.State != state || len(sv.Args) != 0 {
			t.Fatalf("shared state value for state %d was written through: now %v", state, sv)
		}
	}
	return stats
}

// ExpandStats counts what CheckExpandMatchesReference compared.
type ExpandStats struct {
	States, Succs int
	// Failed counts actions whose apply failed, and AfterFailed the
	// successors derived into the scratch world right after an apply on it
	// failed (a handler abandoned mid-run).
	Failed, AfterFailed int
	// Hits counts the handler runs the check's transition memo held, each
	// replayed and run; MemoBypass is why the check ran without the memo.
	Hits       int
	MemoBypass string
	// Challengers counts the symmetry challengers assembled and compared
	// with the streamed encoding, and Pieces the pieces the check's remap
	// table holds, each compared with a remap of its segment.
	Challengers, Pieces int
	// Enumerated counts the states whose actions the memo's segment facts
	// enumerated, each list compared with the decoded world's; Spliced the
	// drops and dups spliced from the parent's key, each compared with the
	// reference, and Declined those of them declined because the reference
	// breaks an invariant.
	Enumerated, Spliced, Declined int
}

// floodSource is a protocol that floods: a cache sends the home a PING
// whenever its processor asks, and the home takes them one at a time, so
// a channel fills past the bound (channelCap) — by a send or by a dup.
const floodSource = `
protocol Flood begin
  state Cache_Inv();
  state Home();

  message PING_FAULT;
  message PING;
end;

state Flood.Cache_Inv()
begin
  message PING_FAULT (id : ID; var info : INFO; src : NODE)
  begin
    Send(HomeNode(id), PING, id);
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("unexpected msg in Cache_Inv");
  end;
end;

state Flood.Home()
begin
  message PING (id : ID; var info : INFO; src : NODE)
  begin
    Print("ping");
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE)
  begin
    Error("unexpected msg to Home");
  end;
end;
`

// floodEvents lets a cache's processor ping whenever its block is in
// Cache_Inv.
type floodEvents struct{ ping []Event }

func (e *floodEvents) Enabled(w *World, node, block int) []Event {
	if w.StateName(node, block) == "Cache_Inv" {
		return e.ping
	}
	return nil
}

func (e *floodEvents) LocalEvents() {}

// FloodConfig is the flood protocol on 2 nodes and 1 block with one dup:
// its run ends at the channel bound, and the states just short of it have
// a dup the bound refuses.
func FloodConfig(t testing.TB) Config {
	p := compileTest(t, floodSource)
	return Config{Proto: p, Nodes: 2, Blocks: 1, Net: netmodel.Model{MaxDups: 1},
		Events: &floodEvents{ping: []Event{{Name: "PING_FAULT", Tag: p.MsgIndex("PING_FAULT")}}}}
}

// CheckExpandMatchesReference is the differential test of what a worker
// does that a textbook expansion does not: it builds every record of a
// decoded world and its successors in a region it resets per state, it
// derives every successor but a state's last into one scratch world by
// decoding only the engine the action runs on and sharing the parent's
// others, and it makes a successor's key by copying from its parent's the
// segments the action cannot have touched. For every state cfg reaches, the
// worker path — one worker reused from state to state, decode (region
// reset, decodeInto), branch (wired to a coverage sink when withCoverage is
// set), apply, key with the action — must yield, action by action, the same
// error or the byte-identical key as the reference: a new heap world decoded
// from the parent's key for that action alone, and a full encode (and
// canonicalization) that is told of no action. And after
// every derived successor the parent must still encode to its key.
//
// Which segments a key may copy from its parent's is the action's to say,
// and the check says it in its own terms (untouched), not encodeVia's: a
// segment is marked copied exactly when the action leaves it alone.
//
// Mutations that must each fail it (tried when it was written): the
// region reset moved after decodeInto in worker.decode (the decoded state
// is overwritten by what the successors build); encodeVia copying the
// engine the action ran on (its stale segment is copied); the scratch
// world's engines bound to the parent world instead of the successor (what
// a derived engine sends lands in the parent); encodeVia copying, on a
// delivery, the row that holds the delivered channel whole (the delivered
// message is still in the key); encodeVia marking the touched engine's
// segment known from the parent's ids (the store would take the parent's
// segment for the successor's).
//
// The transition memo the check filled is the next leg: on every handler
// run it holds, the worker's replay of it (worker.replay, which leaves the
// parent as it was) must yield the reference's key — or decline exactly
// when the reference breaks an invariant — and running the handler must
// leave the engine's segment and the journal the memo holds, and must not
// fail. Mutations that must each fail it (tried when it was written): a
// memo key without the message's index in its channel (a reordered
// delivery replays another message's run); a key without the node (a
// cache replays another cache's run, its sends stamped with the other's
// id); a replay that skips the journal's WakeUp (the processor stays
// stalled).
//
// The memo's segment facts are read through the worker's view of each
// state, loaded over its decoded world: the segment ends it places must be
// the ones decoding finds, a list of actions it enumerates must be the
// decoded world's (appendActions), in order; a delivery is keyed by its message's id, and a drop or a
// dup is replayed as a run of no handler — its channel spliced from the
// parent's key — whose key must be the reference's, or which must decline
// exactly when the reference breaks an invariant. Mutations that must each
// fail it (tried when it was written): engine facts keyed without the node
// (a node whose processor the generator idles enumerates another node's
// events); a splice that removes the span of the message before the
// delivered one; a dup splice that skips the channel bound (a flood's dup
// is claimed past it); a memo key without the engine's segment id.
//
// Under symmetry reduction the last leg is the assembled challengers: for
// every successor, worker path and memo replay alike, and every group
// element, the challenger assembled from the plain key's remapped segments
// — through the check's remap table, with its misses remapped on the spot
// — must be byte for byte the reference world streamed under the remap
// (World.encodeTo); every id a key says it knows must be the id of its
// bytes; and every piece the table holds must be the remap of the segment
// it is filed under. Mutations that must each fail it (tried when it was
// written): remapping a row without reordering its channels (a message
// sits in its source's channel slot); a remap-table key without the
// segment kind (a row's piece is filed as an engine's).
func CheckExpandMatchesReference(t *testing.T, cfg Config, withCoverage bool) ExpandStats {
	t.Helper()
	cfg.Workers = 1
	cfg.normalize()
	red, _, err := buildReduction(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	vt := newVisited()
	mm, rt := newMemo(vt), (*remapTable)(nil)
	if red != nil {
		rt = newRemapTable(vt, len(red.group))
		red.table = rt
	}
	// A violation only ends the exploration early: the states stored by
	// then are compared all the same, and the caller judges their number.
	res, err := check(cfg, vt, mm, rt)
	if err != nil {
		t.Fatal(err)
	}
	memoOn := res.Memo.Bypass == ""
	wk := worker{memoScratch: new(memoScratch)}
	if withCoverage {
		wk.cov = obs.NewCoverage()
	}
	var ref worker // its pend is emptied before each key, so that every piece is remapped afresh
	ref.worlds(&cfg)
	st := ExpandStats{States: vt.states(), MemoBypass: res.Memo.Bypass}
	// challengers assembles every challenger of the plain key in wk.keys
	// and returns them, counted.
	challengers := func() [][]byte {
		if red == nil {
			return nil
		}
		var out [][]byte
		for g := 1; g < len(red.remaps); g++ {
			b, err := red.assemble(&wk.keys, g)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		st.Challengers += len(out)
		return out
	}
	// streamed checks challengers against fs, the reference successor,
	// streamed under each remap.
	streamed := func(fs *World, chal [][]byte, what string) {
		for i, b := range chal {
			var enc keyBuf
			enc.Reset(red.remaps[i+1])
			if err := fs.encodeTo(&enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, enc.Bytes()) {
				t.Fatalf("%s: challenger %d assembled %x, streamed %x", what, i+1, b, enc.Bytes())
			}
		}
	}
	// knownIDs checks that each id kb says it knows is its segment's.
	knownIDs := func(kb *keyBuf, what string) {
		for k := range vt.nseg {
			if kb.known&(1<<k) != 0 && !bytes.Equal(vt.intern.at(kb.ids[k]), kb.segment(k)) {
				t.Fatalf("%s: segment %d said to be id %d, which is %x, not %x", what, k, kb.ids[k], vt.intern.at(kb.ids[k]), kb.segment(k))
			}
		}
	}
	lastFailed := false
	for idx := int32(0); idx < int32(vt.states()); idx++ {
		src, ids := vt.expand(nil, nil, idx)
		key := string(src)
		w, err := wk.decode(&cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		wk.from = ids
		fresh, err := cfg.decode(key)
		if err != nil {
			t.Fatal(err)
		}
		wk.acts = w.appendActions(wk.acts[:0])
		if want := fresh.actions(); !slices.Equal(wk.acts, want) {
			t.Fatalf("state %d: worker's world enables %v, a fresh decode %v", idx, wk.acts, want)
		}
		if memoOn {
			decoded := slices.Clone(w.segEnds)
			if !wk.view.load(mm, w, src, ids) {
				t.Fatalf("state %d: no segment facts", idx)
			}
			if !slices.Equal(w.segEnds, decoded) {
				t.Fatalf("state %d: the facts place its segments at %v, decoding at %v", idx, w.segEnds, decoded)
			}
			if mm.enumerate {
				if got := w.appendFrom(nil, &wk.view); !slices.Equal(got, wk.acts) {
					t.Fatalf("state %d: its facts enable %v, its world %v", idx, got, wk.acts)
				}
				st.Enumerated++
			}
		}
		for i, a := range wk.acts {
			what := fresh.describe(a)
			// The memo leg replays first: the last action is applied to
			// the parent itself below.
			var hit, fault bool
			var run memoRun
			var replayed []byte
			var replayChal [][]byte
			if memoOn {
				k, ok := memoKeyFor(&wk.acts[i], ids, &wk.view)
				if ok {
					run, hit = mm.lookup(&k)
				} else {
					fault = a.kind == actDrop || a.kind == actDup
				}
				if hit || fault {
					kb, err := wk.replay(&cfg, w, nil, &wk.acts[i], run, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					if kb != nil {
						replayChal = challengers()
						if red != nil {
							if err := red.canonicalize(&wk.keys, 0, 0); err != nil {
								t.Fatal(err)
							}
						}
						knownIDs(kb, what)
						replayed = slices.Clone(kb.Bytes())
					}
					if got, err := w.encode(); err != nil || got != key {
						t.Fatalf("state %d, %s: replaying the memoized run changed its parent (err %v)", idx, what, err)
					}
				}
			}
			wa, err := w.branch(a, i == len(wk.acts)-1, wk.cov, wk.succ)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := cfg.decode(key)
			if err != nil {
				t.Fatal(err)
			}
			if wa == wk.succ && lastFailed {
				st.AfterFailed++
			}
			var rec recorder
			if hit {
				wa.rec = &rec
			}
			errW, errF := wa.apply(a), fs.apply(a)
			wa.rec = nil
			if fault {
				st.Spliced++
				if broken := fs.checkInvariants() != ""; broken != (replayed == nil) {
					t.Fatalf("state %d, %s: the splice declined %v, the reference breaks an invariant %v", idx, what, replayed == nil, broken)
				} else if broken {
					st.Declined++
				}
			}
			if hit {
				st.Hits++
				if errW != nil {
					t.Fatalf("state %d, %s: the memo holds a run that fails: %v", idx, what, errW)
				}
				var enc runtime.Encoder
				if err := wa.engines[a.engine()].EncodeState(&enc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc.Bytes(), run.seg) || !bytes.Equal(rec.jrn, run.jrn) {
					t.Fatalf("state %d, %s: the run leaves segment %x and journal %x, the memo holds %x and %x",
						idx, what, enc.Bytes(), rec.jrn, run.seg, run.jrn)
				}
				if broken := fs.checkInvariants() != ""; broken != (replayed == nil) {
					t.Fatalf("state %d, %s: the replay declined %v, the reference breaks an invariant %v", idx, what, replayed == nil, broken)
				}
			}
			if wa == wk.succ {
				lastFailed = errW != nil
				if got, err := w.encode(); err != nil || got != key {
					t.Fatalf("state %d, %s: deriving and applying the successor changed its parent (err %v)", idx, what, err)
				}
			}
			if errW != nil || errF != nil {
				if errW == nil || errF == nil || errW.Error() != errF.Error() {
					t.Fatalf("state %d, %s: worker error %v, reference error %v", idx, what, errW, errF)
				}
				st.Failed++
				continue
			}
			got, err := wk.keys.plain(wa, &wk.acts[i], nil, ids)
			if err != nil {
				t.Fatal(err)
			}
			plain, plainEnds := slices.Clone(got.Bytes()), slices.Clone(got.ends)
			plainKnown, plainIDs := got.known, slices.Clone(got.ids)
			streamed(fs, challengers(), what)
			if red != nil {
				if err := red.canonicalize(&wk.keys, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			knownIDs(got, what)
			ref.keys.pend.reset()
			want, err := ref.keys.key(fs, red, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("state %d, %s: worker key (%d bytes) differs from the reference's (%d bytes)",
					idx, what, len(got.Bytes()), len(want.Bytes()))
			}
			if replayed != nil {
				if !bytes.Equal(replayed, want.Bytes()) {
					t.Fatalf("state %d, %s: the memo's replay keys %x, the reference %x", idx, what, replayed, want.Bytes())
				}
				streamed(fs, replayChal, what+" (replayed)")
			}
			// The segments the store interns the key by are the ones
			// reading the key back finds, however the key was built: where
			// the worker encoded a segment it says where it ends, and a
			// segment it says it copied is its parent's there.
			if err := cfg.decodeInto(fs, want.Bytes()); err != nil {
				t.Fatal(err)
			}
			if decoded := partEnds(nil, fs.segEnds, cfg.Nodes); !slices.Equal(want.ends, decoded) || !slices.Equal(got.ends, decoded) {
				t.Fatalf("state %d, %s: reference segment ends %v, worker's %v, decoded %v", idx, what, want.ends, got.ends, decoded)
			}
			if err := cfg.decodeInto(fs, plain); err != nil {
				t.Fatal(err)
			}
			decoded, parent := partEnds(nil, fs.segEnds, cfg.Nodes), partEnds(nil, w.segEnds, cfg.Nodes)
			if !slices.Equal(plainEnds, decoded) {
				t.Fatalf("state %d, %s: plain segment ends %v, decoded %v", idx, what, plainEnds, decoded)
			}
			for k := range decoded {
				switch copied, untouched := plainKnown&(1<<k) != 0, untouched(a, cfg.Nodes, k); {
				case copied && (plainIDs[k] != ids[k] || !bytes.Equal(storeSegment(plain, decoded, k), storeSegment(src, parent, k))):
					t.Fatalf("state %d, %s: segment %d marked copied but differs from the parent's", idx, what, k)
				case copied != untouched:
					t.Fatalf("state %d, %s: segment %d marked copied %v, but the action leaves it untouched: %v", idx, what, k, copied, untouched)
				}
			}
			st.Succs++
		}
	}
	if red != nil {
		st.Pieces = checkRemapTable(t, red, rt)
	}
	return st
}

// partEnds appends to dst where the store segments but the tail end in a
// key whose world segments end at segEnds (see keyBuf): each engine's end,
// then the end of each row's last channel.
func partEnds(dst, segEnds []int, nodes int) []int {
	dst = append(dst, segEnds[:nodes]...)
	for from := range nodes {
		dst = append(dst, segEnds[nodes+from*nodes+nodes-1])
	}
	return dst
}

// storeSegment returns store segment k of key, whose store segments but the
// tail end at ends.
func storeSegment(key []byte, ends []int, k int) []byte {
	start, end := 0, len(key)
	if k > 0 {
		start = ends[k-1]
	}
	if k < len(ends) {
		end = ends[k]
	}
	return key[start:end]
}

// untouched reports whether applying a leaves store segment k of a key of
// a machine of the given nodes as it is, by the action's own terms: a
// delivery runs its destination's engine and takes a message out of a
// channel in its sender's row, a drop or a dup edits a channel in its
// sender's row and runs no engine, and an event, a timeout or a client step
// runs its node's engine. An engine that runs may change itself and its
// row of outgoing channels; the tail may change in any case.
func untouched(a action, nodes, k int) bool {
	runs, edits := a.node, -1
	switch a.kind {
	case actDeliver:
		runs, edits = a.to, a.from
	case actDrop, actDup:
		runs, edits = -1, a.from
	}
	switch {
	case k < nodes:
		return k != runs
	case k < 2*nodes:
		return k-nodes != runs && k-nodes != edits
	}
	return false
}

// assemble returns challenger g of the plain key in sc.best whole, piece
// by piece as canonicalize assembles it.
func (r *reduction) assemble(sc *keyScratch, g int) ([]byte, error) {
	var out []byte
	sc.begin()
	for p := range 2*r.cfg.Nodes + 1 {
		kind, src := pieceSource(p, r.cfg.Nodes, r.remaps[g])
		var c piece
		if err := r.piece(sc, &c, kind, src, g, 0, 0); err != nil {
			return nil, err
		}
		out = append(out, r.bytes(sc, &c)...)
	}
	return out, nil
}

// checkRemapTable checks every block rt holds against the remaps of the
// segment it is filed under — each image, and the order of their ranks —
// and returns how many pieces it holds.
func checkRemapTable(t *testing.T, red *reduction, rt *remapTable) int {
	t.Helper()
	var wk worker
	wk.worlds(red.cfg)
	x := &wk.keys.remap
	n := 0
	check := func(sid uint32, seg []byte) {
		for kind := range pieceTail + 1 {
			blk := rt.block(kind, sid)
			if blk < 0 {
				continue
			}
			imgs := [][]byte{seg}
			var ranks []uint16
			for g := 1; g < rt.group; g++ {
				var c piece
				rt.get(&c, &piece{src: sid, blk: int32(blk)}, g)
				n++
				want, err := x.remap(red.cfg, kind, seg, kind*red.cfg.Nodes, red.remaps[g])
				if err != nil {
					t.Fatalf("piece (%d, %#x, %d): its segment does not remap as its kind: %v", kind, sid, g, err)
				}
				if got := rt.image(&c); !bytes.Equal(got, want) {
					t.Fatalf("piece (%d, %#x, %d) is %x, its segment remaps to %x", kind, sid, g, got, want)
				}
				imgs, ranks = append(imgs, slices.Clone(want)), append(ranks, c.rank)
			}
			ranks = append([]uint16{uint16(*rt.word(blk, 0) >> 32)}, ranks...)
			for a := range imgs {
				for b := range imgs {
					if bytes.Compare(imgs[a], imgs[b]) != cmp.Compare(ranks[a], ranks[b]) {
						t.Fatalf("block (%d, %#x): images %d and %d compare %d, their ranks %d and %d", kind, sid, a, b, bytes.Compare(imgs[a], imgs[b]), ranks[a], ranks[b])
					}
				}
			}
		}
	}
	for id := range len(rt.segs.intern.refs) {
		check(uint32(id), rt.segs.intern.at(uint32(id)))
	}
	for aid := range len(rt.aliens.refs) {
		check(uint32(aid)|alien, rt.aliens.at(uint32(aid)))
	}
	if n != rt.pieces {
		t.Fatalf("the table counts %d pieces, holds %d", rt.pieces, n)
	}
	return n
}

// AuditLocalEvents tests gen's LocalEvents vouch on the worlds of seeded
// random walks of cfg (WalkSnapshots): for every pair of them, w and v,
// and every (node, block), v with engine node's block set to w's — a
// world that differs from w only outside that block — must enable there
// what w does. It returns the first pair that does not, described ("" if
// none), and how many (pair, node, block) it compared.
func AuditLocalEvents(t testing.TB, cfg Config, gen EventGen, seed int64, walks, steps int) (string, int) {
	t.Helper()
	cfg.normalize()
	keys := WalkSnapshots(t, cfg, seed, walks, steps)
	decode := func(key string) *World {
		w, err := cfg.decode(key)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	compared := 0
	for i, wk := range keys {
		w := decode(wk)
		for j, vk := range keys {
			for n := range cfg.Nodes {
				for b := range cfg.Blocks {
					v := decode(vk)
					*v.engines[n].Blocks[b] = *w.engines[n].Blocks[b]
					compared++
					if got, want := gen.Enabled(v, n, b), gen.Enabled(w, n, b); !slices.Equal(got, want) {
						return fmt.Sprintf("walk worlds %d and %d, node %d block %d in %s: %v against %v",
							i, j, n, b, w.StateName(n, b), got, want), compared
					}
				}
			}
		}
	}
	return "", compared
}
