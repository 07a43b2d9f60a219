package fuzz

import (
	"path/filepath"
	"reflect"
	"testing"

	"teapot/internal/netmodel"
	"teapot/internal/obs"
)

// TestCleanProtocolsFuzzClean smokes every judgeable bundled protocol
// through a short campaign inside its verified envelope: no oracle
// violations, no run errors. Duplicate budgets for stache-ft run at 2
// nodes — beyond that an epoch-less protocol genuinely violates (a
// duplicated writeback can straddle two recall epochs; see ft.go), and
// the fuzzer finds it.
func TestCleanProtocolsFuzzClean(t *testing.T) {
	for _, tc := range []struct {
		proto string
		nodes int
		net   netmodel.Model
	}{
		{"stache", 0, netmodel.Model{}},
		{"stache", 0, netmodel.Model{Reorder: 1}},
		{"stache-ft", 0, netmodel.Model{MaxDrops: 1}},
		{"stache-ft", 2, netmodel.Model{MaxDrops: 1, MaxDups: 1}},
		{"update", 0, netmodel.Model{}},
		{"bufwrite", 0, netmodel.Model{Reorder: 1}},
	} {
		f, err := New(Config{Proto: tc.proto, Nodes: tc.nodes, Net: tc.net, Schedules: 30, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		res, err := f.Fuzz()
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if res.Failure != nil {
			t.Errorf("%s net=%s: unexpected failure after %d schedule(s): %s",
				tc.proto, tc.net, res.Ran, verdictString(res.Failure.Report))
		}
	}
}

// TestFindsSeededBug is the tentpole acceptance path: the fuzzer must find
// the stache-ft-buggy coherence bug under a single-drop budget within a
// bounded campaign, shrink it to a handful of decisions, and the shrunk
// schedule must still fail as a coherence violation (not some other way).
func TestFindsSeededBug(t *testing.T) {
	f, err := New(Config{Proto: "stache-ft-buggy", Net: netmodel.Model{MaxDrops: 1}, Schedules: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuzz()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatalf("no failure in %d schedules", res.Ran)
	}
	if res.Failure.Report.Violation == nil {
		t.Fatalf("wanted an oracle violation, got: %v", res.Failure.Report.RunErr)
	}
	small, tries := f.Shrink(res.Failure.Schedule)
	if len(small.Decisions) > 10 {
		t.Errorf("shrunk reproducer has %d decisions, want <= 10", len(small.Decisions))
	}
	rep := f.Replay(small)
	if rep.Violation == nil {
		t.Fatalf("shrunk schedule no longer violates (RunErr: %v)", rep.RunErr)
	}
	t.Logf("found at schedule %d, shrunk %d -> %d decision(s) in %d replays: %v",
		res.Ran, len(res.Failure.Schedule.Decisions), len(small.Decisions), tries, rep.Violation)
}

// TestScheduleRoundTrip serializes a failing schedule to disk, loads it
// back, and replays it — the artifact path teapot fuzz ships failures on.
func TestScheduleRoundTrip(t *testing.T) {
	f, res := fuzzSeededBug(t)
	sched := res.Failure.Schedule

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := sched.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, loaded) {
		t.Fatalf("round trip changed the schedule:\n  saved:  %+v\n  loaded: %+v", sched, loaded)
	}

	rep, err := ReplaySchedule(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatalf("loaded schedule did not reproduce the violation (RunErr: %v)", rep.RunErr)
	}
	direct := f.Replay(sched)
	if direct.Violation.Error() != rep.Violation.Error() {
		t.Errorf("disk replay verdict differs:\n  direct: %v\n  loaded: %v", direct.Violation, rep.Violation)
	}
}

// TestReplayDeterminism replays the same schedule twice and demands
// bit-identical verdicts and identical choice-point counts.
func TestReplayDeterminism(t *testing.T) {
	f, res := fuzzSeededBug(t)
	sched := res.Failure.Schedule
	a, b := f.Replay(sched), f.Replay(sched)
	if a.Steps != b.Steps {
		t.Errorf("choice points differ across replays: %d vs %d", a.Steps, b.Steps)
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("verdicts differ across replays: %v vs %v", a.Violation, b.Violation)
	}
	if a.Violation != nil && a.Violation.Error() != b.Violation.Error() {
		t.Errorf("violations differ across replays:\n  %v\n  %v", a.Violation, b.Violation)
	}
	// The original recorded run and its replay must agree too.
	if want := res.Failure.Report.Violation; want != nil && a.Violation != nil &&
		want.Error() != a.Violation.Error() {
		t.Errorf("replay disagrees with the recorded run:\n  recorded: %v\n  replayed: %v", want, a.Violation)
	}
}

// TestReplayerTotality replays every single-decision subset of a failing
// schedule: subsets must always be valid schedules (some pass, some fail,
// none crash) — the property delta debugging relies on.
func TestReplayerTotality(t *testing.T) {
	f, res := fuzzSeededBug(t)
	sched := res.Failure.Schedule
	for i := range sched.Decisions {
		sub := *sched
		sub.Decisions = sched.Decisions[i : i+1]
		rep := f.Replay(&sub)
		if rep.Stats == nil && rep.RunErr == nil {
			t.Errorf("subset %d produced neither stats nor an error", i)
		}
	}
	empty := *sched
	empty.Decisions = nil
	if rep := f.Replay(&empty); rep.Violation != nil {
		t.Errorf("the benign (empty) schedule violated coherence: %v", rep.Violation)
	}
}

// fuzzSeededBug runs the canonical failing campaign the schedule tests
// share: stache-ft-buggy under a one-drop budget, master seed 2.
func fuzzSeededBug(t *testing.T) (*Fuzzer, *Result) {
	t.Helper()
	f, err := New(Config{Proto: "stache-ft-buggy", Net: netmodel.Model{MaxDrops: 1}, Schedules: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fuzz()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || res.Failure.Report.Violation == nil {
		t.Fatalf("campaign did not produce an oracle violation (failure: %+v)", res.Failure)
	}
	return f, res
}

func verdictString(r *Report) string {
	switch {
	case r.Violation != nil:
		return r.Violation.Error()
	case r.RunErr != nil:
		return r.RunErr.Error()
	}
	return "clean"
}

// TestCampaignCoverage: a fuzz campaign with Config.Coverage accumulates
// dispatch coverage across schedules, and the same campaign re-run
// accumulates the identical report (seeded schedules are deterministic).
func TestCampaignCoverage(t *testing.T) {
	campaign := func() *obs.Coverage {
		cov := obs.NewCoverage()
		f, err := New(Config{Proto: "stache", Nodes: 2, Blocks: 1,
			Schedules: 20, Seed: 7, Coverage: cov})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fuzz()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure != nil {
			t.Fatalf("clean protocol failed: %v", res.Failure.Report)
		}
		return cov
	}
	a, b := campaign(), campaign()
	if a.DispatchPairs() == 0 {
		t.Fatal("campaign accumulated no dispatch coverage")
	}
	if a.DispatchPairs() != b.DispatchPairs() || a.TransitionEdges() != b.TransitionEdges() {
		t.Errorf("re-run drifted: %d/%d pairs, %d/%d edges",
			a.DispatchPairs(), b.DispatchPairs(), a.TransitionEdges(), b.TransitionEdges())
	}
}
