package mc_test

import (
	"strings"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

// bundled returns the checker configuration of a bundled protocol at one
// shape, wired as the protocols table wires it.
func bundled(t testing.TB, name string, nodes, blocks int) mc.Config {
	t.Helper()
	spec, err := protocols.Spec(name, nodes, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Config
}

func stacheConfig(t *testing.T, nodes, blocks, reorder int) mc.Config {
	cfg := bundled(t, "stache", nodes, blocks)
	cfg.Net = netmodel.Model{Reorder: reorder}
	return cfg
}

func TestStacheTwoNodesOneBlockInOrder(t *testing.T) {
	res, err := mc.Check(stacheConfig(t, 2, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	if res.States < 50 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%v",
		res.States, res.Transitions, res.MaxDepth, res.Elapsed)
}

func TestStacheThreeNodesOneBlockInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(stacheConfig(t, 3, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%v",
		res.States, res.Transitions, res.MaxDepth, res.Elapsed)
}

func TestStacheTwoNodesTwoBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(stacheConfig(t, 2, 2, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d elapsed=%v",
		res.States, res.Transitions, res.MaxDepth, res.Elapsed)
}

func TestBuggyStacheDeadlocks(t *testing.T) {
	res, err := mc.Check(bundled(t, "stache-buggy", 2, 1))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("expected the seeded bug to be found")
	}
	// The upgrade/invalidate race manifests as a deadlock (both parties
	// waiting) or a livelock flagged by a bound; a deadlock is expected.
	if res.Violation.Kind != "deadlock" {
		t.Errorf("violation kind = %s, want deadlock\n%s", res.Violation.Kind, res.Violation)
	}
	if len(res.Violation.Trace) == 0 {
		t.Errorf("violation has no trace")
	}
	// The trace must exhibit the race: an upgrade and an invalidation.
	joined := strings.Join(res.Violation.Trace, "\n")
	if !strings.Contains(joined, "WR_RO_FAULT") || !strings.Contains(joined, "PUT_NO_DATA_REQ") {
		t.Errorf("trace does not show the upgrade/invalidate race:\n%s", joined)
	}
	t.Logf("found after %d states:\n%s", res.States, res.Violation)
}

func TestStateLimit(t *testing.T) {
	cfg := stacheConfig(t, 2, 1, 0)
	cfg.MaxStates = 10
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation == nil || res.Violation.Kind != "state-limit" {
		t.Fatalf("expected state-limit, got %v", res.Violation)
	}
}

// TestEmptyMachineRefused: a machine with no node or no block is an error
// from Check and ReplaySteps — under any symmetry mode — not a divide by
// zero in the home rule or a negative makeslice in the group builder.
func TestEmptyMachineRefused(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {-1, 1}, {2, 0}, {2, -1}} {
		for _, sym := range []mc.SymmetryMode{mc.SymmetryOff, mc.SymmetryAuto, mc.SymmetryOn} {
			// The table refuses these shapes itself; the checker must too.
			cfg := stacheConfig(t, 2, 1, 0)
			cfg.Nodes, cfg.Blocks, cfg.Symmetry = shape[0], shape[1], sym
			if res, err := mc.Check(cfg); err == nil || !strings.Contains(err.Error(), "want at least 1 of each") {
				t.Errorf("Check at %d nodes, %d blocks (symmetry %v): result %v, err %v", shape[0], shape[1], sym, res, err)
			}
			if err := mc.ReplaySteps(cfg, nil, nil); err == nil {
				t.Errorf("ReplaySteps at %d nodes, %d blocks accepted the machine", shape[0], shape[1])
			}
		}
	}
}

func TestDeterministicStateCount(t *testing.T) {
	r1, err := mc.Check(stacheConfig(t, 2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mc.Check(stacheConfig(t, 2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.States != r2.States || r1.Transitions != r2.Transitions {
		t.Errorf("nondeterministic exploration: (%d,%d) vs (%d,%d)",
			r1.States, r1.Transitions, r2.States, r2.Transitions)
	}
}

// TestStacheReorder1 verifies Stache on a reordering network (the paper's
// "1 reordering max" configuration of Table 3). This configuration is what
// forces the poisoned-fill and acknowledged-eviction machinery.
func TestStacheReorder1(t *testing.T) {
	res, err := mc.Check(stacheConfig(t, 2, 1, 1))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	if res.States <= 100 {
		t.Errorf("reordering should enlarge the state space, got %d states", res.States)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

// TestStacheReorder2 pushes reordering further than the paper could
// ("unrestricted reordering led to impractical simulation sizes").
func TestStacheReorder2(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(stacheConfig(t, 2, 1, 2))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}
