package fuzz

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
)

// TestDiffReplayCounterexamples runs mc.DiffReplay on the counterexample
// of every bundled buggy fixture and of the documented dup=2 edge of
// stache-ft: straight-line replay and the checker's own decode → derive →
// apply → encode path must agree on the canonical state after every step.
func TestDiffReplayCounterexamples(t *testing.T) {
	for _, tc := range []struct {
		proto    string
		nodes    int
		net      netmodel.Model
		wantKind string
	}{
		// The seeded SWMR bug: only reachable with a fault budget.
		{"stache-ft-buggy", 2, netmodel.Model{MaxDrops: 1}, "invariant"},
		// The seeded deadlock: reachable on a perfect network.
		{"stache-buggy", 2, netmodel.Model{}, "deadlock"},
		{"stache-buggy", 3, netmodel.Model{Reorder: 1}, "deadlock"},
		// The epoch-less envelope edge: dup steps, three engines.
		{"stache-ft", 3, netmodel.Model{MaxDups: 2}, "invariant"},
	} {
		f, err := New(Config{Proto: tc.proto, Nodes: tc.nodes, Blocks: 1, Net: tc.net})
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		res, err := f.ConfirmMC(2_000_000)
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if res.Violation == nil {
			t.Errorf("%s nodes=%d net=%s: checker found no violation in %d states",
				tc.proto, tc.nodes, tc.net, res.States)
			continue
		}
		if res.Violation.Kind != tc.wantKind {
			t.Errorf("%s nodes=%d net=%s: violation kind %q, want %q",
				tc.proto, tc.nodes, tc.net, res.Violation.Kind, tc.wantKind)
		}
		if len(res.Violation.Steps) != len(res.Violation.Trace) {
			t.Errorf("%s: %d machine-readable steps for a %d-entry trace",
				tc.proto, len(res.Violation.Steps), len(res.Violation.Trace))
		}
		if err := mc.DiffReplay(f.Spec().MCConfig(), res.Violation.Steps); err != nil {
			t.Errorf("%s nodes=%d net=%s: differential replay: %v", tc.proto, tc.nodes, tc.net, err)
		}
	}
}

// TestConfirmMCAgreesWithFuzz closes the loop on the seeded bug: the fuzz
// campaign finds an oracle violation, and the checker — exploring the same
// spec exhaustively — confirms a coherence violation exists, with a
// counterexample mc.DiffReplay accepts.
func TestConfirmMCAgreesWithFuzz(t *testing.T) {
	f, _ := fuzzSeededBug(t)
	res, err := f.ConfirmMC(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("checker found no violation in %d states", res.States)
	}
	if res.Violation.Kind != "invariant" {
		t.Fatalf("checker verdict %q (%s), want a coherence invariant violation",
			res.Violation.Kind, res.Violation.Msg)
	}
	if err := mc.DiffReplay(f.Spec().MCConfig(), res.Violation.Steps); err != nil {
		t.Fatal(err)
	}
	t.Logf("checker: %s in %d states, %d-step counterexample", res.Violation.Msg, res.States, len(res.Violation.Steps))
}
