package litmus

import (
	"strings"
	"testing"

	"teapot/internal/fuzz"
	"teapot/internal/mc"
)

// testOptions keeps budgets small so the differential runs stay fast under
// -race; mp-shaped tests explore only tens of checker states.
func testOptions(mode string) Options {
	return Options{Mode: mode, Budget: 50_000, Seed: 7}
}

func mustParse(t *testing.T, src string) *Test {
	t.Helper()
	tt, err := Parse("inline.lit", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestRunMPAllSubstratesAgree(t *testing.T) {
	tt := mustParse(t, mpSrc)
	res, err := Run(tt, testOptions("all"))
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failure(); f != nil {
		t.Fatalf("mp failed: %v", f)
	}
	if len(res.Modes) != 3 || res.MCStates == 0 {
		t.Fatalf("modes = %v, states = %d", res.Modes, res.MCStates)
	}
	// The checker is exhaustive: exactly the three coherent outcomes, the
	// forbidden stale read (r0=1, r1=0) absent.
	want := []string{
		"r0=0 r1=0 | x=1 y=1",
		"r0=0 r1=1 | x=1 y=1",
		"r0=1 r1=1 | x=1 y=1",
	}
	got := tt.SortedKeys(res.MC)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("mc outcomes = %v, want %v", got, want)
	}
	// Sampling substrates stay within the reference set.
	for name, set := range map[string]map[string]Outcome{"sim": res.Sim, "fuzz": res.Fuzz} {
		if len(set) == 0 {
			t.Errorf("%s produced no outcomes", name)
		}
		if extra := res.ExtraVsMC(set); len(extra) > 0 {
			t.Errorf("%s reached outcomes mc did not: %v", name, extra)
		}
	}
	// With yield jitter the samplers should see real interleaving variety.
	if len(res.Sim) < 2 {
		t.Errorf("sim sampled only %v", tt.SortedKeys(res.Sim))
	}
}

func TestRunForbiddenReachable(t *testing.T) {
	// Forbidding a genuinely reachable outcome must fail in every
	// substrate, with replayable counterexamples on the mc and fuzz sides.
	src := strings.Replace(mpSrc, "forbid stale: r0=1 & r1=0", "forbid fresh2: r0=1 & r1=1", 1)
	src = strings.Replace(src, "allow fresh: r0=1 & r1=1", "", 1)
	tt := mustParse(t, src)
	res, err := Run(tt, testOptions("all"))
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]*Failure{}
	for _, f := range res.Failures {
		if byMode[f.Mode] == nil {
			byMode[f.Mode] = f
		}
	}
	mcf := byMode["mc"]
	if mcf == nil || mcf.Class != "forbidden:fresh2" {
		t.Fatalf("mc failure = %+v", mcf)
	}
	if mcf.MCViolation == nil || len(mcf.MCViolation.Steps) == 0 {
		t.Error("mc counterexample carries no steps")
	}
	if !strings.Contains(mcf.Msg, "replay-confirmed") {
		t.Errorf("mc failure not replay-confirmed: %s", mcf.Msg)
	}

	ff := byMode["fuzz"]
	if ff == nil || ff.Class != "forbidden:fresh2" {
		t.Fatalf("fuzz failure = %+v", ff)
	}
	if ff.Schedule == nil || ff.Schedule.Litmus != tt.Name || ff.Schedule.Expect != ff.Class {
		t.Fatalf("fuzz schedule = %+v", ff.Schedule)
	}
	// The shrunk reproducer must still reproduce through the public replay
	// path (the -replay round trip, minus the disk).
	class, desc, _, err := Replay(tt, ff.Schedule, testOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	if class != ff.Class {
		t.Errorf("replayed class = %q (%s), want %q", class, desc, ff.Class)
	}
}

// TestFailCorpusCounterexampleDiffReplays: the checker's counterexample for
// the seeded swmr bug under a three-node script — client steps, a drop,
// data-carrying messages installing values — passes mc.DiffReplay under
// the configuration that found it.
func TestFailCorpusCounterexampleDiffReplays(t *testing.T) {
	tt, err := LoadFile("../../testdata/litmus/fail/ft-buggy-swmr.lit")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Mode: "mc", Seed: 7}
	res, err := Run(tt, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Failure()
	if f == nil || f.MCViolation == nil || f.MCViolation.Kind != "invariant" {
		t.Fatalf("mc failure = %+v", f)
	}
	kinds := map[string]int{}
	for _, st := range f.MCViolation.Steps {
		kinds[st.Kind]++
	}
	if kinds["client"] == 0 || kinds["deliver"] == 0 || kinds["drop"] == 0 {
		t.Fatalf("counterexample steps by kind = %v, want client, deliver and drop steps", kinds)
	}
	opt.normalize()
	r, err := newRunner(tt, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := r.mcSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.DiffReplay(spec.MCConfig(), f.MCViolation.Steps); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllowUnreachable(t *testing.T) {
	src := strings.Replace(mpSrc, "allow fresh: r0=1 & r1=1", "allow never: r0=9", 1)
	tt := mustParse(t, src)
	res, err := Run(tt, testOptions("mc"))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Failure()
	if f == nil || f.Mode != "mc" || f.Class != "error" || !strings.Contains(f.Msg, `"never" is unreachable`) {
		t.Fatalf("failure = %+v", f)
	}
}

func TestRunExpectViolated(t *testing.T) {
	src := strings.Replace(mpSrc, "expect data: x=1", "expect done: r0=1", 1)
	tt := mustParse(t, src)
	res, err := Run(tt, testOptions("mc"))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Failure()
	if f == nil || f.Class != "error" || !strings.Contains(f.Msg, `expected condition "done" violated`) {
		t.Fatalf("failure = %+v", f)
	}
}

func TestReplayRejectsMismatch(t *testing.T) {
	tt := mustParse(t, mpSrc)
	s := &fuzz.Schedule{Proto: tt.Proto, Nodes: tt.Nodes, Blocks: len(tt.Blocks), Litmus: "other"}
	if _, _, _, err := Replay(tt, s, Options{}); err == nil || !strings.Contains(err.Error(), "drives test") {
		t.Errorf("mismatched test name accepted: %v", err)
	}
	s = &fuzz.Schedule{Proto: tt.Proto, Nodes: 4, Blocks: len(tt.Blocks), Litmus: tt.Name}
	if _, _, _, err := Replay(tt, s, Options{}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("mismatched shape accepted: %v", err)
	}
}

func TestReportDeterministic(t *testing.T) {
	tt := mustParse(t, mpSrc)
	res, err := Run(tt, testOptions("mc"))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport("corpus", "mc", []*Result{res})
	a, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewReport("corpus", "mc", []*Result{res}).Encode()
	if string(a) != string(b) {
		t.Error("report encoding is not deterministic")
	}
	for _, want := range []string{`"tool": "teapot-litmus"`, `"verdict": "ok"`, `"r0=0 r1=0 | x=1 y=1"`} {
		if !strings.Contains(string(a), want) {
			t.Errorf("report missing %s:\n%s", want, a)
		}
	}
}
