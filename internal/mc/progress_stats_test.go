package mc_test

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
)

// progressTrace captures every layer-barrier snapshot with the
// nondeterministic field (Elapsed) zeroed, so whole traces compare with ==.
func progressTrace(t *testing.T, cfg mc.Config, workers int) ([]mc.ProgressInfo, *mc.Result) {
	t.Helper()
	var snaps []mc.ProgressInfo
	cfg.Workers = workers
	cfg.Progress = func(p mc.ProgressInfo) {
		p.Elapsed = 0
		snaps = append(snaps, p)
	}
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatalf("mc (workers=%d): %v", workers, err)
	}
	return snaps, res
}

// TestProgressStatsDeterminism: every ProgressInfo field except Elapsed is
// deterministic for any worker count — depth sequence, frontier sizes,
// visited-set bytes and symmetry group — under fault
// budgets and symmetry reduction alike.
func TestProgressStatsDeterminism(t *testing.T) {
	cfgs := map[string]func() mc.Config{
		"stache-ft-faults": func() mc.Config {
			return stacheFTConfig(t, 2, 1, netmodel.Model{MaxDrops: 1, MaxDups: 1})
		},
		"stache-symmetry": func() mc.Config {
			cfg := stacheConfig(t, 3, 1, 1)
			cfg.Symmetry = mc.SymmetryOn
			return cfg
		},
	}
	for name, mk := range cfgs {
		t.Run(name, func(t *testing.T) {
			ref, refRes := progressTrace(t, mk(), 1)
			if len(ref) == 0 {
				t.Fatal("no progress snapshots")
			}
			for _, workers := range []int{2, 4} {
				got, _ := progressTrace(t, mk(), workers)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d snapshots, want %d", workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Errorf("workers=%d snapshot %d:\n%+v\nwant\n%+v", workers, i, got[i], ref[i])
					}
				}
			}
			last := ref[len(ref)-1]
			// The final snapshot must agree with the result's figures.
			if last.States != refRes.States {
				t.Errorf("final snapshot states %d != result %d", last.States, refRes.States)
			}
			if int64(last.Transitions) != int64(refRes.Transitions) {
				t.Errorf("final snapshot transitions %d != result %d", last.Transitions, refRes.Transitions)
			}
			if last.SymmetryGroup != refRes.SymmetryGroup {
				t.Errorf("final snapshot symmetry group %d != result %d", last.SymmetryGroup, refRes.SymmetryGroup)
			}
			if last.VisitedBytes != refRes.VisitedBytes {
				t.Errorf("final snapshot visited bytes %d != result %d", last.VisitedBytes, refRes.VisitedBytes)
			}
		})
	}
}

// TestProgressPeakFrontier: the result's PeakFrontier must equal the
// largest frontier any snapshot reported — the figure the run manifest
// records as peak per-layer memory.
func TestProgressPeakFrontier(t *testing.T) {
	snaps, res := progressTrace(t, stacheFTConfig(t, 2, 1, netmodel.Model{MaxDrops: 1}), 2)
	peak := 0
	for _, p := range snaps {
		if p.Frontier > peak {
			peak = p.Frontier
		}
	}
	if res.PeakFrontier != peak {
		t.Errorf("Result.PeakFrontier = %d, snapshots peak at %d", res.PeakFrontier, peak)
	}
	if peak == 0 {
		t.Error("peak frontier never rose above zero")
	}
}
