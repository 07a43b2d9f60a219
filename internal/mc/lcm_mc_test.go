package mc_test

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols/lcm"
)

// lcmConfig checks a runnable LCM variant (Base or MCC) without the
// coherence invariant: LCM phases are deliberately inconsistent.
func lcmConfig(t *testing.T, v lcm.Variant, nodes, blocks, reorder int) mc.Config {
	cfg := bundled(t, v.String(), nodes, blocks)
	cfg.Net = netmodel.Model{Reorder: reorder}
	return cfg
}

func TestLCMSimpleTwoNodes(t *testing.T) {
	res, err := mc.Check(lcmConfig(t, lcm.Base, 2, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

func TestLCMMCCTwoNodes(t *testing.T) {
	res, err := mc.Check(lcmConfig(t, lcm.MCC, 2, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

func TestLCMReorder1(t *testing.T) {
	res, err := mc.Check(lcmConfig(t, lcm.Base, 2, 1, 1))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

// bufwriteConfig checks with the coherence invariant on: buffered mode is
// not counted as a writer.
func bufwriteConfig(t *testing.T, nodes, blocks, reorder int) mc.Config {
	cfg := bundled(t, "bufwrite", nodes, blocks)
	cfg.Net = netmodel.Model{Reorder: reorder}
	return cfg
}

func TestBufferedWriteTwoNodes(t *testing.T) {
	res, err := mc.Check(bufwriteConfig(t, 2, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

func TestBufferedWriteReorder1(t *testing.T) {
	res, err := mc.Check(bufwriteConfig(t, 2, 1, 1))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

// Larger configurations, beyond the paper's completed runs.

func TestLCMTwoBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(lcmConfig(t, lcm.Base, 2, 2, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

func TestLCMThreeNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(lcmConfig(t, lcm.Base, 3, 1, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}

func TestBufferedWriteTwoBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	res, err := mc.Check(bufwriteConfig(t, 2, 2, 0))
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %d states:\n%s", res.States, res.Violation)
	}
	t.Logf("states=%d transitions=%d depth=%d", res.States, res.Transitions, res.MaxDepth)
}
