package mc_test

import (
	"reflect"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols/lcm"
	"teapot/internal/runtime"
)

// equivalenceConfigs are the machines the worker-equivalence contract is
// checked on: clean protocols and the seeded-bug Stache variant (whose run
// ends in a violation, exercising the deterministic candidate selection
// and trace replay).
func equivalenceConfigs(t *testing.T) map[string]func() mc.Config {
	t.Helper()
	return map[string]func() mc.Config{
		"stache":       func() mc.Config { return stacheConfig(t, 2, 1, 1) },
		"stache-buggy": func() mc.Config { return bundled(t, "stache-buggy", 2, 1) },
		// Fault budgets multiply the action set (drops, dups, timeouts) and
		// thread extra counters through the canonical encoding; the
		// equivalence contract must hold across all of it.
		"stache-ft-faults": func() mc.Config {
			return stacheFTConfig(t, 2, 1, netmodel.Model{MaxDrops: 1, MaxDups: 1})
		},
		"bufwrite": func() mc.Config { return bufwriteConfig(t, 2, 1, 1) },
		"update": func() mc.Config {
			cfg := bundled(t, "update", 2, 1)
			cfg.Net = netmodel.Model{Reorder: 1}
			return cfg
		},
		"lcm": func() mc.Config { return lcmConfig(t, lcm.Base, 2, 1, 0) },
		// Symmetry-reduced runs at 3 nodes (the smallest shape with a
		// nontrivial group): canonicalization happens inside the workers'
		// claim path, so the determinism contract must hold there too.
		"stache-sym": func() mc.Config {
			cfg := stacheConfig(t, 3, 1, 1)
			cfg.Symmetry = mc.SymmetryOn
			return cfg
		},
		"stache-buggy-sym": func() mc.Config {
			cfg := bundled(t, "stache-buggy", 3, 1)
			cfg.Symmetry = mc.SymmetryOn
			return cfg
		},
		"lcm-sym": func() mc.Config {
			cfg := lcmConfig(t, lcm.Base, 3, 1, 0)
			cfg.Symmetry = mc.SymmetryOn
			return cfg
		},
	}
}

// TestWorkerEquivalence is the determinism contract of the parallel
// checker: States, Transitions, MaxDepth, the violation kind, the
// counterexample trace length, and what the visited store holds (its bytes
// and interned segments) must be identical for any worker count.
// Every run has a Progress callback installed — observation must never
// perturb the result — and the snapshots themselves are checked for the
// deterministic shape Check promises (one per layer, depth increasing,
// final totals matching the Result).
func TestWorkerEquivalence(t *testing.T) {
	for name, mk := range equivalenceConfigs(t) {
		t.Run(name, func(t *testing.T) {
			var base *mc.Result
			for _, workers := range []int{1, 2, 8} {
				cfg := mk()
				cfg.Workers = workers
				var snaps []mc.ProgressInfo
				cfg.Progress = func(p mc.ProgressInfo) { snaps = append(snaps, p) }
				res, err := mc.Check(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(snaps) != res.MaxDepth+1 {
					t.Errorf("workers=%d: %d progress snapshots, want one per layer (%d)",
						workers, len(snaps), res.MaxDepth+1)
				}
				for i, p := range snaps {
					if p.Depth != i {
						t.Errorf("workers=%d: snapshot %d has depth %d", workers, i, p.Depth)
					}
				}
				if last := snaps[len(snaps)-1]; last.States != res.States ||
					last.Transitions != int64(res.Transitions) || last.VisitedBytes != res.VisitedBytes {
					t.Errorf("workers=%d: final snapshot (states,transitions,visited bytes) = (%d,%d,%d), result has (%d,%d,%d)",
						workers, last.States, last.Transitions, last.VisitedBytes,
						res.States, res.Transitions, res.VisitedBytes)
				}
				if res.Workers != workers {
					t.Errorf("res.Workers = %d, want %d", res.Workers, workers)
				}
				if base == nil {
					base = res
					continue
				}
				if res.States != base.States || res.Transitions != base.Transitions ||
					res.MaxDepth != base.MaxDepth {
					t.Errorf("workers=%d: (states,transitions,depth) = (%d,%d,%d), want (%d,%d,%d)",
						workers, res.States, res.Transitions, res.MaxDepth,
						base.States, base.Transitions, base.MaxDepth)
				}
				if res.KeyBytes != base.KeyBytes || res.KeyBytesEncoded != base.KeyBytesEncoded ||
					res.KeyBytes == 0 || res.KeyBytesEncoded == 0 {
					t.Errorf("workers=%d: key bytes (built,encoded) = (%d,%d), want (%d,%d), neither zero",
						workers, res.KeyBytes, res.KeyBytesEncoded, base.KeyBytes, base.KeyBytesEncoded)
				}
				// The store interns segments at the barrier, in commit order,
				// so what it holds is the same for any worker count too.
				if res.VisitedBytes != base.VisitedBytes || res.Segments != base.Segments ||
					res.SegmentBytes != base.SegmentBytes || res.VisitedBytes == 0 {
					t.Errorf("workers=%d: visited %d bytes, %d segments of %d bytes; want %d, %d, %d",
						workers, res.VisitedBytes, res.Segments, res.SegmentBytes,
						base.VisitedBytes, base.Segments, base.SegmentBytes)
				}
				// So does the remap table, filled at the barrier in commit
				// order.
				if res.RemapPieces != base.RemapPieces || res.RemapBytes != base.RemapBytes ||
					(res.SymmetryGroup > 1) != (res.RemapPieces > 0) {
					t.Errorf("workers=%d: remap table %d pieces of %d bytes, want %d, %d (symmetry /%d)",
						workers, res.RemapPieces, res.RemapBytes, base.RemapPieces, base.RemapBytes, res.SymmetryGroup)
				}
				switch {
				case (res.Violation == nil) != (base.Violation == nil):
					t.Errorf("workers=%d: violation presence differs", workers)
				case res.Violation != nil:
					if res.Violation.Kind != base.Violation.Kind {
						t.Errorf("workers=%d: violation kind %q, want %q",
							workers, res.Violation.Kind, base.Violation.Kind)
					}
					if len(res.Violation.Trace) != len(base.Violation.Trace) {
						t.Errorf("workers=%d: trace length %d, want %d",
							workers, len(res.Violation.Trace), len(base.Violation.Trace))
					}
				}
			}
		})
	}
}

// TestMemoWorkerEquivalence: the transition memo is written only at layer
// barriers, in commit order, so what it holds — entries and bytes — and
// which handler runs it serves are the same for any worker count. And it
// changes nothing a run reports: a run that records coverage bypasses the
// memo (and says so), and reaches the same states, transitions, depth, key
// bytes and violation as one that replays.
func TestMemoWorkerEquivalence(t *testing.T) {
	for name, mk := range equivalenceConfigs(t) {
		t.Run(name, func(t *testing.T) {
			var base *mc.Result
			for _, workers := range []int{1, 2} {
				cfg := mk()
				cfg.Workers = workers
				res, err := mc.Check(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if m := res.Memo; m.Bypass != "" || m.Entries == 0 || m.Hits == 0 || m.Hits > m.Runs {
					t.Fatalf("workers=%d: memo %+v: want it on, holding runs and serving some", workers, m)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Memo != base.Memo {
					t.Errorf("workers=%d: memo %+v, workers=1 %+v", workers, res.Memo, base.Memo)
				}
			}
			cfg := mk()
			cfg.Workers = 1
			cfg.Coverage = obs.NewCoverage()
			res, err := mc.Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Memo.Bypass == "" || res.Memo.Runs != 0 {
				t.Errorf("coverage run: memo %+v, want it bypassed", res.Memo)
			}
			if res.States != base.States || res.Transitions != base.Transitions || res.MaxDepth != base.MaxDepth ||
				res.KeyBytes != base.KeyBytes || res.KeyBytesEncoded != base.KeyBytesEncoded {
				t.Errorf("without the memo (states,transitions,depth,key bytes) = (%d,%d,%d,%d/%d), with it (%d,%d,%d,%d/%d)",
					res.States, res.Transitions, res.MaxDepth, res.KeyBytes, res.KeyBytesEncoded,
					base.States, base.Transitions, base.MaxDepth, base.KeyBytes, base.KeyBytesEncoded)
			}
			if (res.Violation == nil) != (base.Violation == nil) ||
				res.Violation != nil && !reflect.DeepEqual(res.Violation, base.Violation) {
				t.Errorf("without the memo violation %v, with it %v", res.Violation, base.Violation)
			}
		})
	}
}

// TestMemoBypassUnvouched: a support module that does not vouch its
// routines local runs without the memo, and the run says which routine it
// missed; the result is the vouched run's.
func TestMemoBypassUnvouched(t *testing.T) {
	cfg := stacheConfig(t, 2, 1, 1)
	want, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Support = struct{ runtime.Support }{cfg.Support} // hides mc.LocalSupport
	got, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Memo.Bypass != "support routine AddSharer is not vouched local" || got.Memo.Runs != 0 {
		t.Errorf("memo %+v, want it bypassed for AddSharer", got.Memo)
	}
	if got.States != want.States || got.Transitions != want.Transitions || got.MaxDepth != want.MaxDepth {
		t.Errorf("unvouched run %d/%d/%d, vouched %d/%d/%d", got.States, got.Transitions, got.MaxDepth,
			want.States, want.Transitions, want.MaxDepth)
	}
}

// TestMachineAnswersOnlyHomeNode pins the fact the transition memo rests
// on: of the calls a handler can make on its machine, and on the machine
// extensions the checker's World implements, only HomeNode returns a value
// (a function of the configuration), so a handler run cannot read the world.
func TestMachineAnswersOnlyHomeNode(t *testing.T) {
	for _, iface := range []reflect.Type{
		reflect.TypeFor[runtime.Machine](),
		reflect.TypeFor[runtime.DataMachine](),
		reflect.TypeFor[runtime.TimeoutArmer](),
	} {
		for i := range iface.NumMethod() {
			if m := iface.Method(i); m.Type.NumOut() > 0 && m.Name != "HomeNode" {
				t.Errorf("%s.%s returns a value: a handler could read the world through it, and the memo would replay a run that depends on it", iface, m.Name)
			}
		}
	}
}

// TestSmallLayersInline: a layer shorter than mc.InlineLayer is expanded on
// the driver goroutine whatever Workers says. On shapes whose every layer is
// that short — a clean run and one ending in a counterexample — a
// four-worker check must equal the one-worker check field for field,
// coverage included.
func TestSmallLayersInline(t *testing.T) {
	for _, name := range []string{"stache", "stache-buggy"} {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) (*mc.Result, []mc.ProgressInfo, *obs.Coverage) {
				cfg := equivalenceConfigs(t)[name]()
				cfg.Workers = workers
				cfg.Coverage = obs.NewCoverage()
				var snaps []mc.ProgressInfo
				cfg.Progress = func(p mc.ProgressInfo) {
					p.Elapsed = 0
					snaps = append(snaps, p)
				}
				res, err := mc.Check(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				res.Workers, res.Elapsed = 0, 0
				return res, snaps, cfg.Coverage
			}
			want, wantSnaps, wantCov := run(1)
			for _, p := range wantSnaps {
				if p.Frontier >= mc.InlineLayer {
					t.Fatalf("depth %d has %d states: the shape is too wide for this test", p.Depth, p.Frontier)
				}
			}
			got, gotSnaps, gotCov := run(4)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=4 result\n%+v\nworkers=1 result\n%+v", got, want)
			}
			if !reflect.DeepEqual(gotSnaps, wantSnaps) {
				t.Errorf("progress snapshots differ between workers=4 and workers=1")
			}
			if !reflect.DeepEqual(gotCov, wantCov) {
				t.Errorf("coverage differs between workers=4 and workers=1")
			}
		})
	}
}

// TestWiderEnvelope pins the first committed shape that crosses the visited
// store's chunk rollover and several doublings of its table:
// stache-ft at 4 nodes with one dropped message, reduced by its group of 6,
// cut at 300,000 states (the full space is 9,230,544; see EXPERIMENTS.md).
// Where the cut falls is a whole layer, so states, transitions and depth
// are exact and the same for any worker count.
func TestWiderEnvelope(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a few seconds of checking; minutes under the race detector")
	}
	for _, workers := range []int{1, 2} {
		cfg := specConfig(t, "stache-ft", 4, 1, netmodel.Model{MaxDrops: 1})
		cfg.Symmetry = mc.SymmetryOn
		cfg.MaxStates = 300000
		cfg.Workers = workers
		res, err := mc.Check(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Violation == nil || res.Violation.Kind != "state-limit" || res.SymmetryGroup != 6 {
			t.Fatalf("workers=%d: violation %v, group %d; want the state-limit cut under a group of 6",
				workers, res.Violation, res.SymmetryGroup)
		}
		if res.States != 317585 || res.Transitions != 1064755 || res.MaxDepth != 18 {
			t.Errorf("workers=%d: (states, transitions, depth) = (%d, %d, %d), want (317585, 1064755, 18)",
				workers, res.States, res.Transitions, res.MaxDepth)
		}
	}
}

// TestDecodesPerState asserts the one-full-decode contract: a clean run
// decodes every visited state exactly once (a successor re-decodes only the
// segments its action touches; the seed checker decoded the whole state once
// per enabled action on top of once per state).
func TestDecodesPerState(t *testing.T) {
	res, err := mc.Check(stacheConfig(t, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %s", res.Violation)
	}
	if res.Decodes != int64(res.States) {
		t.Errorf("decodes = %d, want exactly one per state (%d)", res.Decodes, res.States)
	}
}

// TestSnapshotRestoreCloneRoundTrip pins the exported snapshot API: a
// restored or cloned world re-encodes to the identical canonical key.
func TestSnapshotRestoreCloneRoundTrip(t *testing.T) {
	cfg := stacheConfig(t, 2, 2, 1)
	w := mc.InitialWorld(&cfg)
	key, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := cfg.Restore(key)
	if err != nil {
		t.Fatal(err)
	}
	rkey, err := rw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rkey != key {
		t.Error("restore round-trip changed the canonical encoding")
	}
	cw, err := rw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ckey, err := cw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ckey != key {
		t.Error("clone changed the canonical encoding")
	}
}

// TestBuggyTraceIdenticalAcrossWorkers goes beyond trace length: the
// seeded-bug counterexample must be step-for-step identical for 1 and 8
// workers (the deterministic min-claim merge makes even the chosen parent
// chain worker-count independent).
func TestBuggyTraceIdenticalAcrossWorkers(t *testing.T) {
	// With symmetry on, the trace is additionally de-permuted from canonical
	// orbit representatives back into original coordinates; the result must
	// stay worker-count independent and replay on an unreduced world.
	for _, sym := range []mc.SymmetryMode{mc.SymmetryOff, mc.SymmetryOn} {
		t.Run("symmetry-"+sym.String(), func(t *testing.T) {
			var replayCfg mc.Config
			run := func(workers int) *mc.Result {
				cfg := bundled(t, "stache-buggy", 3, 1)
				cfg.Workers, cfg.Symmetry = workers, sym
				replayCfg = cfg
				res, err := mc.Check(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation == nil {
					t.Fatal("seeded bug not found")
				}
				return res
			}
			r1, r8 := run(1), run(8)
			if len(r1.Violation.Trace) != len(r8.Violation.Trace) {
				t.Fatalf("trace lengths differ: %d vs %d",
					len(r1.Violation.Trace), len(r8.Violation.Trace))
			}
			for i := range r1.Violation.Trace {
				if r1.Violation.Trace[i] != r8.Violation.Trace[i] {
					t.Errorf("trace step %d differs:\n  w1: %s\n  w8: %s",
						i, r1.Violation.Trace[i], r8.Violation.Trace[i])
				}
			}
			// The machine-readable steps must replay in original (unreduced)
			// coordinates from the initial state.
			replayCfg.Symmetry = mc.SymmetryOff
			if err := mc.ReplaySteps(replayCfg, r8.Violation.Steps, nil); err != nil {
				t.Errorf("counterexample does not replay: %v", err)
			}
		})
	}
}
