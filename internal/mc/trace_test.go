package mc_test

import (
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
)

// TestViolationSteps: every counterexample must carry machine-readable
// steps matching its human trace one-for-one, ReplaySteps must re-execute
// them from the initial state without divergence, and DiffReplay must find
// the checker's decode/derive/encode path in agreement with that replay.
func TestViolationSteps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      mc.Config
		wantKind string
	}{
		{
			name:     "deadlock (perfect network)",
			cfg:      stacheBuggyCfg(t, 2, netmodel.Model{}),
			wantKind: "deadlock",
		},
		{
			name:     "coherence invariant (drop budget)",
			cfg:      stacheFTBuggyCfg(t, 2, netmodel.Model{MaxDrops: 1}),
			wantKind: "invariant",
		},
	} {
		res, err := mc.Check(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v := res.Violation
		if v == nil {
			t.Fatalf("%s: no violation in %d states", tc.name, res.States)
		}
		if v.Kind != tc.wantKind {
			t.Errorf("%s: kind %q, want %q", tc.name, v.Kind, tc.wantKind)
		}
		if len(v.Steps) != len(v.Trace) {
			t.Fatalf("%s: %d steps for a %d-entry trace", tc.name, len(v.Steps), len(v.Trace))
		}
		visited := 0
		err = mc.ReplaySteps(tc.cfg, v.Steps, func(i int, st mc.Step, ev *mc.Event, w *mc.World, applyErr error) error {
			visited++
			if st.Kind == "event" && ev == nil {
				t.Errorf("%s: step %d is an event but no resolved Event was passed", tc.name, i)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: replay: %v", tc.name, err)
		}
		if visited != len(v.Steps) {
			t.Errorf("%s: replay visited %d of %d steps", tc.name, visited, len(v.Steps))
		}
		if err := mc.DiffReplay(tc.cfg, v.Steps); err != nil {
			t.Errorf("%s: differential replay: %v", tc.name, err)
		}
	}
}

// TestReplayStepsRejectsDiverged: a step that names a transition the
// replayed world does not enable must fail loudly, not silently skip.
func TestReplayStepsRejectsDiverged(t *testing.T) {
	cfg := stacheBuggyCfg(t, 2, netmodel.Model{})
	err := mc.ReplaySteps(cfg, []mc.Step{{Kind: "deliver", From: 0, To: 1, Idx: 0}}, nil)
	if err == nil {
		t.Fatal("delivering from an empty channel should fail")
	}
	err = mc.ReplaySteps(cfg, []mc.Step{{Kind: "timeout", Node: 0, Block: 0}}, nil)
	if err == nil {
		t.Fatal("TIMEOUT without a fault budget should not be enabled")
	}
	if err := mc.DiffReplay(cfg, nil); err == nil {
		t.Fatal("a differential replay of no steps checks nothing and should say so")
	}
}

func stacheBuggyCfg(t *testing.T, nodes int, net netmodel.Model) mc.Config {
	cfg := bundled(t, "stache-buggy", nodes, 1)
	cfg.Net = net
	return cfg
}

func stacheFTBuggyCfg(t *testing.T, nodes int, net netmodel.Model) mc.Config {
	cfg := bundled(t, "stache-ft-buggy", nodes, 1)
	cfg.Net = net
	return cfg
}
