package mc_test

import (
	"strings"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
)

func stacheFTConfig(t *testing.T, nodes, blocks int, net netmodel.Model) mc.Config {
	cfg := bundled(t, "stache-ft", nodes, blocks)
	cfg.Net = net
	return cfg
}

// TestStacheFailsUnderDrop: the base protocol has no retransmission, so a
// single dropped message must be reported — as a lost-message stall, not a
// generic deadlock — and the counterexample trace must show the drop.
func TestStacheFailsUnderDrop(t *testing.T) {
	cfg := stacheConfig(t, 2, 1, 0)
	cfg.Net = netmodel.Model{MaxDrops: 1}
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("stache passed under drop=1; a lost message should stall it")
	}
	if res.Violation.Kind != "deadlock" {
		t.Fatalf("violation kind = %q, want deadlock:\n%s", res.Violation.Kind, res.Violation)
	}
	if !strings.Contains(res.Violation.Msg, "dropped message") {
		t.Errorf("deadlock message does not name the dropped message:\n%s", res.Violation.Msg)
	}
	var sawDrop bool
	for _, step := range res.Violation.Trace {
		if strings.Contains(step, "DROP") {
			sawDrop = true
			break
		}
	}
	if !sawDrop {
		t.Errorf("counterexample trace has no DROP step:\n%s", strings.Join(res.Violation.Trace, "\n"))
	}
}

// TestStacheFTUnderFaults: the fault-tolerant variant must verify clean —
// full coherence checking — under every budget scripts/check.sh smokes.
func TestStacheFTUnderFaults(t *testing.T) {
	nets := map[string]netmodel.Model{
		"clean":     {},
		"reorder=1": {Reorder: 1},
		"drop=1":    {MaxDrops: 1},
		"dup=1":     {MaxDups: 1},
		"drop=1,dup=1": {
			MaxDrops: 1,
			MaxDups:  1,
		},
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			res, err := mc.Check(stacheFTConfig(t, 2, 1, net))
			if err != nil {
				t.Fatalf("mc: %v", err)
			}
			if res.Violation != nil {
				t.Fatalf("violation under %s:\n%s", name, res.Violation)
			}
			if net.Active() && res.States <= 100 {
				t.Errorf("suspiciously small fault exploration: %d states", res.States)
			}
		})
	}
}

// TestStacheFTTimeoutOnlyUnderFaults: on a perfect network the TIMEOUT
// pseudo-message must never fire — fault-free exploration of the FT
// variant may not contain a single TIMEOUT transition.
func TestStacheFTTimeoutOnlyUnderFaults(t *testing.T) {
	cfg := stacheFTConfig(t, 2, 1, netmodel.Model{})
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("violation on clean network:\n%s", res.Violation)
	}
	base, err := mc.Check(stacheConfig(t, 2, 1, 0))
	if err != nil {
		t.Fatalf("mc base: %v", err)
	}
	// The FT source adds handlers but no new reachable behavior on a clean
	// network, aside from home-side idempotent re-grant branches that are
	// never taken; state counts beyond 2x the base would mean TIMEOUT or
	// stale-drop paths are firing without faults.
	if res.States > 2*base.States {
		t.Errorf("clean-network FT exploration has %d states vs base %d — fault paths leaking into fault-free runs?",
			res.States, base.States)
	}
}
