package mc_test

import (
	"math"
	goruntime "runtime"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// reuseShape is one configuration the world-reuse tests walk.
type reuseShape struct {
	name string
	cfg  func(t testing.TB) mc.Config
}

func namedConfig(name string, nodes, blocks int, net netmodel.Model) func(testing.TB) mc.Config {
	return func(t testing.TB) mc.Config {
		t.Helper()
		spec, err := protocols.Spec(name, nodes, blocks)
		if err != nil {
			t.Fatal(err)
		}
		spec.Net = net
		return spec.MCConfig()
	}
}

// litmusConfig is a scripted-client shape (store buffering with a CAS on
// top, over base Stache, 2 nodes / 2 blocks): the client plane — script
// positions, observed registers, block versions and contents — is part of
// the encoding, and data messages carry values.
func litmusConfig(t testing.TB) mc.Config {
	t.Helper()
	spec, err := protocols.Spec("stache", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	client, err := mc.NewClient(spec.Proto, [][]tempest.Op{
		{{Kind: tempest.OpWrite, Addr: 0, Val: 1}, {Kind: tempest.OpRead, Addr: 1}, {Kind: tempest.OpCAS, Addr: 1, Val: 7, Expect: 2}},
		{{Kind: tempest.OpWrite, Addr: 1, Val: 2}, {Kind: tempest.OpRead, Addr: 0}, {Kind: tempest.OpRead, Addr: 1}},
	}, []int64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	spec.Events = nil // the script is the only event source
	spec.Client = client
	return spec.MCConfig()
}

// reuseShapes are the shapes reuse must be invisible on: faults with
// timeouts and a mask variable (stache-ft), continuations and reordering
// (lcm), and the client plane.
var reuseShapes = []reuseShape{
	{"stache-ft-2n-drop-dup", namedConfig("stache-ft", 2, 1, netmodel.Model{MaxDrops: 1, MaxDups: 1})},
	{"lcm-2n-reorder", namedConfig("lcm", 2, 1, netmodel.Model{Reorder: 1})},
	{"litmus-sb-cas", litmusConfig},
}

// TestDecodeIntoDirtyWorld: a worker decodes every state it expands into
// the one world it keeps, so what that world held before — another state,
// an action's leftovers, a handler abandoned by a protocol error, coverage
// sinks — must not show. The protocol errors come from base Stache under a
// duplicate, which it has no tolerance for (the bundled seeded-bug
// protocols violate invariants without ever failing a handler).
func TestDecodeIntoDirtyWorld(t *testing.T) {
	shapes := append([]reuseShape{
		{"stache-2n-dup", namedConfig("stache", 2, 1, netmodel.Model{MaxDups: 1})},
	}, reuseShapes...)
	var all mc.DirtyStats
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			st := mc.CheckDecodeIntoDirtyWorld(t, sh.cfg(t), 1, 12, 30)
			t.Logf("%+v", st)
			if st.Decodes < 100 || st.Applied == 0 || st.Sinks == 0 || st.SharedBare == 0 {
				t.Errorf("walk too thin to mean anything: %+v", st)
			}
			all.Merge(st)
		})
	}
	if all.MidHandler == 0 {
		t.Errorf("no world was left mid-handler by a protocol error: %+v", all)
	}
}

// TestExpandMatchesReference: see mc.CheckExpandMatchesReference. The shapes
// are the reuse shapes at the sizes Table 3's fault sweep checks them, three
// nodes so that the symmetry group is not trivial (a two-node machine has
// one non-home node and nothing to permute), lcm at three nodes, and base
// Stache under a duplicate it has no tolerance for, whose handlers
// fail — so the scratch world is also derived into right after an action
// abandoned it mid-handler; then the verify_full shape (stache-ft, 3 nodes,
// one drop) cut at 40,000 states, Stache on two blocks (where the group
// swaps nodes and blocks together), bufwrite and update,
// whose generators do not vouch LocalEvents (so their states are decoded
// and enumerated from their worlds, and the rest is as on any other
// shape), Stache-ft on three nodes with one cache's processor idle (a
// generator that vouches LocalEvents and answers by node, so two caches
// with one engine segment enable different events), and a flood whose
// dup the channel bound refuses. Each runs with symmetry off and auto, and
// but the large one once more with coverage sinks wired to every
// successor; in every leg each handler run the transition memo holds is
// replayed and run again, and every drop and dup is spliced and run. The
// scripted client bypasses the memo, and nothing else does.
func TestExpandMatchesReference(t *testing.T) {
	type shape struct {
		reuseShape
		minStates int
		// reducible: symmetry auto reduces it; enumerates: its segment
		// facts enumerate its actions; faults: it drops or dups.
		reducible, enumerates, faults bool
		large                         bool
	}
	shapes := []shape{
		{reuseShape{"stache-ft-2n-drop2-dup1", namedConfig("stache-ft", 2, 1, netmodel.Model{MaxDrops: 2, MaxDups: 1})}, 8021, false, true, true, false},
		{reuseShape{"stache-ft-3n", namedConfig("stache-ft", 3, 1, netmodel.Model{})}, 3136, true, true, false, false},
		{reuseShape{"lcm-2n-reorder", namedConfig("lcm", 2, 1, netmodel.Model{Reorder: 1})}, 399, false, false, false, false},
		{reuseShape{"lcm-3n", namedConfig("lcm", 3, 1, netmodel.Model{})}, 7216, true, false, false, false},
		{reuseShape{"litmus-sb-cas", litmusConfig}, 123, false, false, false, false},
		{reuseShape{"stache-2n-dup", namedConfig("stache", 2, 1, netmodel.Model{MaxDups: 1})}, 65, false, true, true, false},
		{reuseShape{"stache-ft-3n-drop1-cut", func(t testing.TB) mc.Config {
			cfg := namedConfig("stache-ft", 3, 1, netmodel.Model{MaxDrops: 1})(t)
			cfg.MaxStates = 40000
			return cfg
		}}, 40000, true, true, true, true},
		{reuseShape{"stache-2n-2b", namedConfig("stache", 2, 2, netmodel.Model{})}, 1500, true, true, false, false},
		{reuseShape{"bufwrite-2n-reorder", namedConfig("bufwrite", 2, 1, netmodel.Model{Reorder: 1})}, 220, false, false, false, false},
		{reuseShape{"update-2n-reorder", namedConfig("update", 2, 1, netmodel.Model{Reorder: 1})}, 23, false, false, false, false},
		{reuseShape{"stache-ft-3n-idle-node", func(t testing.TB) mc.Config {
			cfg := namedConfig("stache-ft", 3, 1, netmodel.Model{})(t)
			cfg.Events = idleNodeEvents{gen: cfg.Events, idle: 2}
			return cfg
		}}, 100, false, true, false, false},
		{reuseShape{"flood-2n-dup1", mc.FloodConfig}, 20, false, true, true, false},
	}
	legs := []struct {
		name     string
		sym      mc.SymmetryMode
		coverage bool
	}{{"symmetry-off", mc.SymmetryOff, false}, {"symmetry-auto", mc.SymmetryAuto, false}, {"coverage", mc.SymmetryOff, true}}
	for _, sh := range shapes {
		for _, leg := range legs {
			t.Run(sh.name+"/"+leg.name, func(t *testing.T) {
				if sh.large && (leg.coverage || raceEnabled) {
					t.Skip("seconds of checking per leg; minutes under the race detector")
				}
				cfg := sh.cfg(t)
				cfg.Symmetry = leg.sym
				st := mc.CheckExpandMatchesReference(t, cfg, leg.coverage)
				t.Logf("%+v", st)
				if st.States < sh.minStates || st.Succs < st.States {
					t.Errorf("exploration too thin to mean anything: %+v (want at least %d states)", st, sh.minStates)
				}
				if sh.name == "stache-2n-dup" && st.AfterFailed == 0 {
					t.Errorf("the scratch world was never derived into after a failed apply: %+v", st)
				}
				// The flood's successors are mostly faults, which the
				// memo does not serve: there its splices count too.
				served := st.Hits
				if sh.name == "flood-2n-dup1" {
					served += st.Spliced
				}
				if client := sh.name == "litmus-sb-cas"; client != (st.MemoBypass != "") || !client && served < st.Succs/2 {
					t.Errorf("memo bypassed %q, %d runs replayed, %d faults spliced: want the memo on every shape but the client's, serving most successors", st.MemoBypass, st.Hits, st.Spliced)
				}
				if reduced := leg.sym != mc.SymmetryOff && sh.reducible; reduced != (st.Challengers > 0) || reduced && st.Pieces == 0 {
					t.Errorf("%d challengers assembled, %d remap-table pieces audited: want both on the reduced shapes and none elsewhere", st.Challengers, st.Pieces)
				}
				if sh.enumerates != (st.Enumerated == st.States) || !sh.enumerates && st.Enumerated > 0 {
					t.Errorf("%d of %d states enumerated from their segment facts, want all %v", st.Enumerated, st.States, sh.enumerates)
				}
				if sh.faults != (st.Spliced > 0) {
					t.Errorf("%d drops and dups spliced, want some %v", st.Spliced, sh.faults)
				}
				if flood := sh.name == "flood-2n-dup1"; flood != (st.Declined > 0) {
					t.Errorf("%d splices declined at the channel bound, want some only on the flood", st.Declined)
				}
			})
		}
	}
}

// idleNodeEvents is a generator whose processor at node idle issues
// nothing, and the others what gen enables: it answers by node and by the
// block's state, so it vouches LocalEvents, but not equivariance.
type idleNodeEvents struct {
	gen  mc.EventGen
	idle int
}

func (g idleNodeEvents) Enabled(w *mc.World, node, block int) []mc.Event {
	if node == g.idle {
		return nil
	}
	return g.gen.Enabled(w, node, block)
}

func (idleNodeEvents) LocalEvents() {}

// TestExpandAllocs is the checker's allocation contract per transition:
// none. A worker decodes into a world it keeps, builds every record of that
// world and of its successors in a region it resets per state, derives into
// a scratch world it keeps, runs handlers on a register stack and keys a
// successor in scratch buffers, and the visited store adds nothing per state
// (TestVisitedAllocs). What a run does allocate is set-up — the protocol's
// tables, the worlds, slabs growing to one state's need — and the visited
// store's growth, so the bound is marginal, where fixed set-up cannot hide a
// per-transition cost: the allocations a larger exploration of the same
// machine adds, per transition it adds. (Measured: 0.05, the visited store's
// growth; before workers had regions: 3.3.) The SymmetryOn leg holds a
// reduced run to the same bound, on 3 nodes where the group is not
// trivial: challengers are assembled in scratch, and the remap table grows
// by doubling like the store.
func TestExpandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, leg := range []struct {
		sym          mc.SymmetryMode
		nodes        int
		small, large netmodel.Model
	}{
		{mc.SymmetryOff, 2, netmodel.Model{MaxDrops: 1}, netmodel.Model{MaxDrops: 2, MaxDups: 1}},
		{mc.SymmetryOn, 3, netmodel.Model{}, netmodel.Model{MaxDrops: 1}},
	} {
		t.Run(leg.sym.String(), func(t *testing.T) {
			run := func(net netmodel.Model) (mallocs uint64, transitions int) {
				cfg := namedConfig("stache-ft", leg.nodes, 1, net)(t)
				cfg.Workers, cfg.Symmetry = 1, leg.sym
				var before, after goruntime.MemStats
				goruntime.ReadMemStats(&before)
				res, err := mc.Check(cfg)
				goruntime.ReadMemStats(&after)
				if err != nil || res.Violation != nil {
					t.Fatalf("err %v, violation %v", err, res.Violation)
				}
				if leg.sym == mc.SymmetryOn && res.RemapPieces == 0 {
					t.Fatalf("a reduced run filled no remap table: %+v", res)
				}
				return after.Mallocs - before.Mallocs, res.Transitions
			}
			smallAllocs, smallTrans := run(leg.small)
			largeAllocs, largeTrans := run(leg.large)
			marginal := (float64(largeAllocs) - float64(smallAllocs)) / float64(largeTrans-smallTrans)
			t.Logf("%d allocations for %d transitions, %d for %d: %.3f per added transition",
				smallAllocs, smallTrans, largeAllocs, largeTrans, marginal)
			if marginal > 0.1 {
				t.Errorf("%.3f allocations per added transition, want at most 0.1", marginal)
			}
		})
	}
}

// TestVisitedAllocs: see mc.CheckVisitedAllocs.
func TestVisitedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	mc.CheckVisitedAllocs(t)
}

// TestProbeAllocs: see mc.CheckProbeAllocs.
func TestProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	mc.CheckProbeAllocs(t)
}

// TestFingerprintSpread: over every key a real exploration stores, the
// fingerprint gives no two keys the same 64 bits, spreads them evenly over
// 64 buckets by its top six bits and by its low six bits — the ones that
// pick where a probe starts — and almost never sends a lookup to compare
// against a key it is not. The explorations are stache-ft 2n under drops
// and a duplicate (8,021 states) and the verify_full benchmark's 3n drop=1
// (170,738). A bucket's count is held within ±15 % of the mean, or within
// five standard deviations of what a uniform hash would put there where
// that is wider: at 125 keys per bucket one deviation is 8.9 % of the mean,
// and a uniform hash puts a few of 64 buckets outside ±15 %; at 2,668 it is
// 1.9 %.
func TestFingerprintSpread(t *testing.T) {
	for _, sh := range []struct {
		reuseShape
		states int
		slow   bool
	}{
		{reuseShape{"stache-ft-2n-drop2-dup1", namedConfig("stache-ft", 2, 1, netmodel.Model{MaxDrops: 2, MaxDups: 1})}, 8021, false},
		{reuseShape{"stache-ft-3n-drop1", namedConfig("stache-ft", 3, 1, netmodel.Model{MaxDrops: 1})}, 170738, true},
	} {
		t.Run(sh.name, func(t *testing.T) {
			if sh.slow && (raceEnabled || testing.Short()) {
				t.Skip("a second to explore, several under the race detector")
			}
			cfg := sh.cfg(t)
			cfg.Symmetry = mc.SymmetryOff
			st := mc.CheckFingerprintSpread(t, cfg)
			t.Logf("%+v", st)
			if st.States != sh.states {
				t.Fatalf("%d states, want %d", st.States, sh.states)
			}
			mean := float64(st.States) / 64
			tol := max(0.15, 5*math.Sqrt(mean*63/64)/mean)
			for _, b := range []struct {
				bits     string
				min, max int
			}{{"top", st.TopMin, st.TopMax}, {"low", st.LowMin, st.LowMax}} {
				if float64(b.min) < (1-tol)*mean || float64(b.max) > (1+tol)*mean {
					t.Errorf("buckets by the %s six bits hold %d..%d keys around a mean of %.1f, want within ±%.0f%%", b.bits, b.min, b.max, mean, 100*tol)
				}
			}
			if st.Failed*1000 >= st.Confirms {
				t.Errorf("%d of %d full-key confirmations failed, want under 1 in 1,000", st.Failed, st.Confirms)
			}
		})
	}
}

// FuzzRestore: Restore takes its key from outside the checker (a snapshot
// someone saved), so a damaged key must come back as an error — never a
// panic, never an allocation sized by a corrupt count — and whatever world
// it does return must be whole enough to re-encode. Seeds are snapshots
// along random walks of the three reuse shapes, plus every truncation of
// one snapshot per shape and that snapshot with a trailing byte.
func FuzzRestore(f *testing.F) {
	cfgs := make([]mc.Config, len(reuseShapes))
	for i, sh := range reuseShapes {
		cfgs[i] = sh.cfg(f)
		keys := mc.WalkSnapshots(f, cfgs[i], 1, 3, 20)
		for _, key := range keys {
			f.Add(uint8(i), []byte(key))
		}
		last := keys[len(keys)-1]
		for cut := 0; cut < len(last); cut++ {
			f.Add(uint8(i), []byte(last[:cut]))
		}
		f.Add(uint8(i), []byte(last+"\x00"))
	}
	f.Fuzz(func(t *testing.T, shape uint8, key []byte) {
		cfg := cfgs[int(shape)%len(cfgs)]
		w, err := cfg.Restore(string(key))
		if err != nil {
			if w != nil {
				t.Fatal("Restore returned a world with its error")
			}
			return
		}
		if _, err := w.Snapshot(); err != nil {
			t.Fatalf("restored world does not re-encode: %v", err)
		}
	})
}

// TestRestoreTruncated: every proper prefix of a snapshot is refused (the
// fuzz seeds only require "no panic"; this pins the error).
func TestRestoreTruncated(t *testing.T) {
	for _, sh := range reuseShapes {
		cfg := sh.cfg(t)
		keys := mc.WalkSnapshots(t, cfg, 2, 1, 25)
		key := keys[len(keys)-1]
		if _, err := cfg.Restore(key); err != nil {
			t.Fatalf("%s: intact snapshot: %v", sh.name, err)
		}
		for cut := 0; cut < len(key); cut++ {
			if w, err := cfg.Restore(key[:cut]); err == nil || w != nil {
				t.Errorf("%s: snapshot truncated to %d of %d bytes restored (err %v)", sh.name, cut, len(key), err)
			}
		}
		if _, err := cfg.Restore(key + "\x00"); err == nil {
			t.Errorf("%s: snapshot with a trailing byte restored", sh.name)
		}
	}
}

// TestLocalEventsVouch audits the LocalEvents vouch (mc.AuditLocalEvents)
// of every bundled generator that makes it, on three nodes under a drop
// and on two blocks, and shows the audit can fail: LCM's generator reads
// every node's state for a block (phaseActive), so a copy of it that
// vouched would enumerate wrong events, and the audit finds a pair of
// worlds that tells.
func TestLocalEventsVouch(t *testing.T) {
	vouched := 0
	for _, name := range protocols.RunnableNames() {
		for _, shape := range []struct {
			nodes, blocks int
			net           netmodel.Model
		}{{3, 1, netmodel.Model{MaxDrops: 1}}, {2, 2, netmodel.Model{}}} {
			cfg := namedConfig(name, shape.nodes, shape.blocks, shape.net)(t)
			if _, ok := cfg.Events.(mc.LocalEvents); !ok {
				continue
			}
			vouched++
			msg, n := mc.AuditLocalEvents(t, cfg, cfg.Events, 1, 3, 20)
			if msg != "" {
				t.Errorf("%s %dn/%db: %s", name, shape.nodes, shape.blocks, msg)
			}
			if n < 1000 {
				t.Errorf("%s %dn/%db: %d comparisons, too few to mean anything", name, shape.nodes, shape.blocks, n)
			}
		}
	}
	if vouched == 0 {
		t.Fatal("no bundled generator vouches LocalEvents")
	}
	cfg := namedConfig("lcm", 3, 1, netmodel.Model{})(t)
	if msg, _ := mc.AuditLocalEvents(t, cfg, falseVouch{cfg.Events}, 1, 3, 20); msg == "" {
		t.Error("the audit passes LCM's generator, which reads other nodes' states")
	} else {
		t.Logf("LCM vouching falsely: %s", msg)
	}
}

// falseVouch vouches LocalEvents for a generator that does not keep it.
type falseVouch struct{ mc.EventGen }

func (falseVouch) LocalEvents() {}
