package mc_test

import (
	"cmp"
	"reflect"
	"strings"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
)

// TestSymmetryEquivalence is the soundness contract of the reduction: for
// every bundled runnable protocol, checking with symmetry reduction must
// reach the same verdict as checking without — same violation kind (or
// none), found at the same BFS depth with a counterexample of the same
// length — while visiting ~|G|× fewer states. Counterexamples from the
// reduced run must be valid in original coordinates: they must pass
// mc.DiffReplay, which knows nothing of the reduction.
//
// The 4-node shapes (|G| = 6) are where a reduced trace is rebuilt through
// a group with more than one non-identity element: each step is the first
// whose successor canonicalizes to the next stored key. Matching the
// successor's plain key instead must fail them (tried when they were
// added: the replay diverges at the first step off the canonical path).
func TestSymmetryEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		proto string // "" = name
		nodes int    // 0 = 3
		net   netmodel.Model
		group int // expected group order at the shape's nodes / 1 block
		// Exact unreduced and reduced state counts; 0 = not pinned.
		full, reduced int
	}{
		{name: "stache", net: netmodel.Model{Reorder: 1}, group: 2, full: 29087, reduced: 14583},
		{name: "stache-ft", net: netmodel.Model{MaxDrops: 1}, group: 2},
		// Verifies, but is deliberately not node-symmetric: the certificate
		// gate must refuse reduction and still agree with the full run.
		{name: "stache-asym", group: 1},
		{name: "stache-buggy", group: 2},
		{name: "stache-ft-buggy", net: netmodel.Model{MaxDrops: 1}, group: 2},
		{name: "lcm", group: 2},
		{name: "lcm-mcc", group: 2},
		{name: "bufwrite", group: 2},
		{name: "update", group: 2},
		{name: "stache-4n-drop", proto: "stache", nodes: 4, net: netmodel.Model{MaxDrops: 1}, group: 6},
		{name: "stache-ft-buggy-4n-drop", proto: "stache-ft-buggy", nodes: 4, net: netmodel.Model{MaxDrops: 1}, group: 6},
		{name: "stache-buggy-4n-reorder", proto: "stache-buggy", nodes: 4, net: netmodel.Model{Reorder: 1}, group: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "stache-ft" {
				t.Skip("multi-second state space; run without -short")
			}
			proto, nodes := cmp.Or(tc.proto, tc.name), cmp.Or(tc.nodes, 3)
			spec, err := protocols.Spec(proto, nodes, 1)
			if err != nil {
				t.Fatal(err)
			}
			spec.Net = tc.net
			full, err := mc.Check(spec.MCConfig())
			if err != nil {
				t.Fatalf("unreduced: %v", err)
			}
			cfg := spec.MCConfig()
			cfg.Symmetry = mc.SymmetryAuto
			red, err := mc.Check(cfg)
			if err != nil {
				t.Fatalf("reduced: %v", err)
			}
			if red.SymmetryGroup != tc.group {
				t.Errorf("group order = %d (note %q), want %d",
					red.SymmetryGroup, red.SymmetryNote, tc.group)
			}
			if tc.nodes == 4 && full.Violation == nil {
				t.Fatal("the 4-node shapes are here for their counterexamples, and this one verifies")
			}
			switch {
			case (full.Violation == nil) != (red.Violation == nil):
				t.Fatalf("verdicts disagree: unreduced %v, reduced %v",
					full.Violation, red.Violation)
			case full.Violation != nil:
				if full.Violation.Kind != red.Violation.Kind {
					t.Errorf("violation kind: unreduced %q, reduced %q",
						full.Violation.Kind, red.Violation.Kind)
				}
				if len(full.Violation.Trace) != len(red.Violation.Trace) {
					t.Errorf("trace length: unreduced %d, reduced %d",
						len(full.Violation.Trace), len(red.Violation.Trace))
				}
				// The reduced trace must hold up in original coordinates.
				if err := mc.DiffReplay(spec.MCConfig(), red.Violation.Steps); err != nil {
					t.Errorf("reduced counterexample does not replay: %v", err)
				}
			}
			if full.MaxDepth != red.MaxDepth {
				t.Errorf("max depth: unreduced %d, reduced %d", full.MaxDepth, red.MaxDepth)
			}
			if tc.group > 1 && red.States >= full.States {
				t.Errorf("no reduction: %d states reduced vs %d unreduced", red.States, full.States)
			}
			if tc.full != 0 && (full.States != tc.full || red.States != tc.reduced) {
				t.Errorf("states %d -> %d, want %d -> %d", full.States, red.States, tc.full, tc.reduced)
			}
			t.Logf("states %d -> %d (group %d, ratio %.3f)",
				full.States, red.States, red.SymmetryGroup,
				float64(full.States)/float64(red.States))
		})
	}
}

// TestSymmetryReductionRatio pins the measured reduction factors. Group
// theory caps the ratio at |G| with equality only when no reachable state
// is a fixed point of any non-identity permutation; the initial state is
// always such a fixed point, so 3 nodes / 1 block (|G| = 2) lands just
// under 2 and 4 nodes / 1 block (|G| = 6) well above it.
func TestSymmetryReductionRatio(t *testing.T) {
	check := func(nodes, blocks, reorder int, wantGroup int, wantRatio float64) {
		t.Helper()
		full, err := mc.Check(stacheConfig(t, nodes, blocks, reorder))
		if err != nil {
			t.Fatal(err)
		}
		cfg := stacheConfig(t, nodes, blocks, reorder)
		cfg.Symmetry = mc.SymmetryOn
		red, err := mc.Check(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if red.SymmetryGroup != wantGroup {
			t.Fatalf("%dn/%db: group order %d, want %d", nodes, blocks, red.SymmetryGroup, wantGroup)
		}
		ratio := float64(full.States) / float64(red.States)
		if ratio < wantRatio {
			t.Errorf("%dn/%db: reduction ratio %.3f < %.2f (states %d -> %d)",
				nodes, blocks, ratio, wantRatio, full.States, red.States)
		}
		if ratio > float64(wantGroup) {
			t.Errorf("%dn/%db: ratio %.3f exceeds group order %d — reduction merged distinct orbits",
				nodes, blocks, ratio, wantGroup)
		}
		t.Logf("%dn/%db reorder=%d: %d -> %d states, ratio %.3f (|G| = %d)",
			nodes, blocks, reorder, full.States, red.States, ratio, wantGroup)
	}
	check(3, 1, 1, 2, 1.5)
	if !testing.Short() {
		check(4, 1, 0, 6, 2.0)
	}
}

// TestSymmetryGate covers the three modes on the asymmetric fixture and a
// trivial-group shape. stache-asym verifies dynamically, so only the static
// certificate separates it from stache; SymmetryOn must fail loudly with
// the refutation witness, SymmetryAuto must fall back to an unreduced run
// and say why.
func TestSymmetryGate(t *testing.T) {
	spec, err := protocols.Spec("stache-asym", 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := spec.MCConfig()
	cfg.Symmetry = mc.SymmetryOn
	if _, err := mc.Check(cfg); err == nil {
		t.Error("SymmetryOn accepted the asymmetric protocol")
	} else {
		for _, want := range []string{"-symmetry=on", "refutes node symmetry", "Cache_RO.PUT_NO_DATA_REQ"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refusal %q does not mention %q", err, want)
			}
		}
	}

	cfg = spec.MCConfig()
	cfg.Symmetry = mc.SymmetryAuto
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatalf("SymmetryAuto must fall back, got error: %v", err)
	}
	if res.SymmetryGroup != 1 {
		t.Errorf("asymmetric protocol reduced by group of %d", res.SymmetryGroup)
	}
	if !strings.Contains(res.SymmetryNote, "refutes node symmetry") {
		t.Errorf("SymmetryNote = %q, want the prover's refutation", res.SymmetryNote)
	}
	if res.Violation != nil {
		t.Errorf("stache-asym should verify: %v", res.Violation)
	}

	// 2 nodes / 1 block admits only the identity (every non-home node map
	// must fix the home); SymmetryOn is a no-op there, not an error.
	cfg2 := stacheConfig(t, 2, 1, 1)
	cfg2.Symmetry = mc.SymmetryOn
	res2, err := mc.Check(cfg2)
	if err != nil {
		t.Fatalf("trivial group must be accepted: %v", err)
	}
	if res2.SymmetryGroup != 1 {
		t.Errorf("2n/1b group order = %d, want 1", res2.SymmetryGroup)
	}
	full2, err := mc.Check(stacheConfig(t, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.States != full2.States {
		t.Errorf("trivial reduction changed the state count: %d vs %d", res2.States, full2.States)
	}
}

// TestSymmetryProgressReportsGroup: the per-layer snapshots carry the group
// order, and the shard-balance statistics keep describing the stored —
// post-canonicalization — fingerprints (their totals must sum to the
// reduced state count, not the full one).
func TestSymmetryProgressReportsGroup(t *testing.T) {
	cfg := stacheConfig(t, 3, 1, 0)
	cfg.Symmetry = mc.SymmetryOn
	var snaps []mc.ProgressInfo
	cfg.Progress = func(p mc.ProgressInfo) { snaps = append(snaps, p) }
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	for _, p := range snaps {
		if p.SymmetryGroup != 2 {
			t.Fatalf("snapshot SymmetryGroup = %d, want 2", p.SymmetryGroup)
		}
	}
	last := snaps[len(snaps)-1]
	if last.States != res.States {
		t.Errorf("final snapshot states %d != result %d", last.States, res.States)
	}
	if last.ShardMax*64 < int64(res.States) {
		t.Errorf("shard stats inconsistent with reduced count: max %d over 64 shards, %d states",
			last.ShardMax, res.States)
	}
}

// specConfig builds the checker configuration of a bundled protocol.
func specConfig(t *testing.T, name string, nodes, blocks int, net netmodel.Model) mc.Config {
	t.Helper()
	spec, err := protocols.Spec(name, nodes, blocks)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = net
	return spec.MCConfig()
}

// TestStreamedEncodingMatchesReference: canonicalization never builds a
// permuted world any more — the encoder relabels as it writes — so the
// definition it replaced is kept as a test reference and the two are
// compared byte for byte along seeded random walks, at every world and
// every group element. The shapes are chosen so that everything a remap
// must reach is under the encoder at some point: node-bitmask slots
// (sharers, awaiting), node and block ids saved in continuations, deferred
// queues, in-flight and duplicated messages, stalled nodes, and block
// permutations that drag home nodes with them (2 blocks).
func TestStreamedEncodingMatchesReference(t *testing.T) {
	walks, steps := 40, 60
	if testing.Short() {
		walks = 12
	}
	var all mc.StreamFeatures
	for _, tc := range []struct {
		name          string
		nodes, blocks int
		net           netmodel.Model
	}{
		{"stache-ft", 4, 2, netmodel.Model{MaxDrops: 1, MaxDups: 1}},
		{"lcm", 3, 2, netmodel.Model{Reorder: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feat := mc.CheckStreamedAgainstReference(t,
				specConfig(t, tc.name, tc.nodes, tc.blocks, tc.net), 1, walks, steps)
			t.Logf("%+v", feat)
			if feat.Worlds < walks*steps/4 {
				t.Errorf("walks died young: only %d worlds", feat.Worlds)
			}
			all.Merge(feat)
		})
	}
	if !all.MaskBits || !all.ContIdentity || !all.DeferredMsg || !all.Stalled || !all.InFlight {
		t.Errorf("the walks never put some remapped structure under the encoder: %+v", all)
	}
}

// TestSymmetryWorkerEquivalence: canonicalization scratch is per worker,
// so a reduced run must report the same counts, the same coverage and the
// same counterexample whatever the worker count — on the seeded-bug
// protocol, whose run ends in a violation found mid-layer.
func TestSymmetryWorkerEquivalence(t *testing.T) {
	run := func(workers int) (*mc.Result, *obs.CoverageReport) {
		cfg := specConfig(t, "stache-ft-buggy", 3, 1, netmodel.Model{MaxDrops: 1})
		cfg.Symmetry = mc.SymmetryOn
		cfg.Workers = workers
		cfg.Coverage = obs.NewCoverage()
		res, err := mc.Check(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, cfg.Coverage.Report(runtime.ObsNames(cfg.Proto))
	}
	one, oneCov := run(1)
	two, twoCov := run(2)
	if one.SymmetryGroup != 2 || one.Violation == nil {
		t.Fatalf("expected a reduced run ending in a violation, got group %d, violation %v",
			one.SymmetryGroup, one.Violation)
	}
	if one.States != two.States || one.Transitions != two.Transitions || one.MaxDepth != two.MaxDepth {
		t.Errorf("(states,transitions,depth): workers=1 (%d,%d,%d), workers=2 (%d,%d,%d)",
			one.States, one.Transitions, one.MaxDepth, two.States, two.Transitions, two.MaxDepth)
	}
	if !reflect.DeepEqual(oneCov, twoCov) {
		t.Errorf("coverage differs between workers=1 and workers=2:\n%+v\nvs\n%+v", oneCov, twoCov)
	}
	if two.Violation == nil || one.Violation.String() != two.Violation.String() ||
		!reflect.DeepEqual(one.Violation.Steps, two.Violation.Steps) {
		t.Errorf("counterexamples differ:\nworkers=1 %v\nworkers=2 %v", one.Violation, two.Violation)
	}
}

// TestCanonicalizeAllocs: the reduction's per-transition work must not
// touch the heap — challengers are assembled from a warmed remap table's
// pieces in the worker's scratch and compared there — and the plain encode
// behind World.Snapshot allocates the string it returns and nothing else.
func TestCanonicalizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	cfg := specConfig(t, "stache-ft", 3, 1, netmodel.Model{MaxDrops: 1})
	w := mc.MidRunWorld(t, &cfg, 3, 14)
	canon := mc.Canonicalizer(t, &cfg)
	if err := canon(w); err != nil { // warm the scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := canon(w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("canonicalize allocates %v times per world over warmed scratch, want 0", n)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Snapshot allocates %v times, want 1 (the returned string)", n)
	}
}

// TestSymmetryAutoGroupBound: -symmetry=auto is the CLI default, so it must
// not walk into a group whose canonicalization costs more than its orbits
// save. 6 nodes / 6 blocks has |G| = 720: auto runs unreduced and says why,
// on still honours the request.
func TestSymmetryAutoGroupBound(t *testing.T) {
	cfg := specConfig(t, "stache", 6, 6, netmodel.Model{})
	cfg.MaxStates = 200
	cfg.Symmetry = mc.SymmetryAuto
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SymmetryGroup != 1 {
		t.Errorf("auto reduced by a group of order %d", res.SymmetryGroup)
	}
	for _, want := range []string{"order 720", "-symmetry=on"} {
		if !strings.Contains(res.SymmetryNote, want) {
			t.Errorf("SymmetryNote = %q, want it to mention %q", res.SymmetryNote, want)
		}
	}
	cfg = specConfig(t, "stache", 6, 6, netmodel.Model{})
	cfg.MaxStates = 20
	cfg.Symmetry = mc.SymmetryOn
	res, err = mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SymmetryGroup != 720 {
		t.Errorf("SymmetryOn group order = %d, want 720", res.SymmetryGroup)
	}
}
