package mc

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
// Mutations that must each fail it (tried when it was written): the
// region reset moved after decodeInto in worker.decode (the decoded state
// is overwritten by what the successors build); action.changes leaving out
// the engine the action ran on (its stale segment is copied); the scratch
// world's engines bound to the parent world instead of the successor (what
// a derived engine sends lands in the parent); a run encodeVia copies
// reaching one segment into the changed range after it (the touched
// engine's stale bytes are copied); partFirst putting an engine's start
// one segment early, so that encodeVia does not mark untouched engines
// copied (the store would intern what it could take from the parent).
//
// The transition memo the check filled is the last leg: on every handler
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
func CheckExpandMatchesReference(t *testing.T, cfg Config, withCoverage bool) ExpandStats {
	t.Helper()
	cfg.Workers = 1
	vt, mm := newVisited(), new(memo)
	// A violation only ends the exploration early: the states stored by
	// then are compared all the same, and the caller judges their number.
	res, err := check(cfg, vt, mm)
	if err != nil {
		t.Fatal(err)
	}
	memoOn := res.Memo.Bypass == ""
	cfg.normalize()
	red, _, err := buildReduction(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	wk := worker{memoScratch: new(memoScratch)}
	if withCoverage {
		wk.cov = obs.NewCoverage()
	}
	var ref keyScratch
	st := ExpandStats{States: vt.states(), MemoBypass: res.Memo.Bypass}
	lastFailed := false
	for idx := int32(0); idx < int32(vt.states()); idx++ {
		src, ids := vt.expand(nil, nil, idx)
		key := string(src)
		w, err := wk.decode(&cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		wk.from = parentSegs{ids: ids, ends: partEnds(nil, w.segEnds, cfg.Nodes)}
		fresh, err := cfg.decode(key)
		if err != nil {
			t.Fatal(err)
		}
		wk.acts = w.appendActions(wk.acts[:0])
		if want := fresh.actions(); !slices.Equal(wk.acts, want) {
			t.Fatalf("state %d: worker's world enables %v, a fresh decode %v", idx, wk.acts, want)
		}
		for i, a := range wk.acts {
			what := fresh.describe(a)
			// The memo leg replays first: the last action is applied to
			// the parent itself below.
			var hit bool
			var memoSeg, memoJrn, replayed []byte
			if k, ok := memoKeyFor(&wk.acts[i], ids, cfg.Nodes); ok && memoOn {
				if memoSeg, memoJrn, hit = mm.lookup(&k); hit {
					kb, err := wk.replay(&cfg, w, red, &wk.acts[i], memoSeg, memoJrn)
					if err != nil {
						t.Fatal(err)
					}
					if kb != nil {
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
			if hit {
				st.Hits++
				if errW != nil {
					t.Fatalf("state %d, %s: the memo holds a run that fails: %v", idx, what, errW)
				}
				var enc runtime.Encoder
				if err := wa.engines[a.engine()].EncodeState(&enc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc.Bytes(), memoSeg) || !bytes.Equal(rec.jrn, memoJrn) {
					t.Fatalf("state %d, %s: the run leaves segment %x and journal %x, the memo holds %x and %x",
						idx, what, enc.Bytes(), rec.jrn, memoSeg, memoJrn)
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
			got, err := wk.keys.key(wa, red, &wk.acts[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.key(fs, red, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("state %d, %s: worker key (%d bytes) differs from the reference's (%d bytes)",
					idx, what, len(got.Bytes()), len(want.Bytes()))
			}
			if replayed != nil && !bytes.Equal(replayed, want.Bytes()) {
				t.Fatalf("state %d, %s: the memo's replay keys %x, the reference %x", idx, what, replayed, want.Bytes())
			}
			// The segments the store interns the key by are the ones
			// reading the key back finds, however the key was built: where
			// the worker encoded a segment it says where it ends, and a
			// segment it says it copied is its parent's there.
			if err := cfg.decodeInto(fs, want.Bytes()); err != nil {
				t.Fatal(err)
			}
			decoded, parent := partEnds(nil, fs.segEnds, cfg.Nodes), partEnds(nil, w.segEnds, cfg.Nodes)
			if want.copied != 0 || !slices.Equal(want.ends, decoded) {
				t.Fatalf("state %d, %s: reference segment ends %v (copied %#x), decoded %v", idx, what, want.ends, want.copied, decoded)
			}
			if !slices.Equal(got.ends, decoded) {
				t.Fatalf("state %d, %s: segment ends %v, decoded %v", idx, what, got.ends, decoded)
			}
			changed := wk.acts[i].changes(cfg.Nodes, nil)
			for k := range decoded {
				first, last := partFirst(k, cfg.Nodes), partLast(k, cfg.Nodes)
				untouched := !slices.ContainsFunc(changed, func(r segRange) bool { return r.lo <= last && first < r.hi })
				switch copied := got.copied&(1<<k) != 0; {
				case copied && !bytes.Equal(segmentOf(got.Bytes(), decoded, k), segmentOf(src, parent, k)):
					t.Fatalf("state %d, %s: segment %d marked copied but differs from the parent's", idx, what, k)
				case copied != untouched && red == nil:
					t.Fatalf("state %d, %s: segment %d marked copied %v, but the action leaves it untouched: %v", idx, what, k, copied, untouched)
				}
			}
			st.Succs++
		}
	}
	return st
}
