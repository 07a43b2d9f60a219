package cli

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"teapot/internal/fuzz"
	"teapot/internal/litmus"
	"teapot/internal/manifest"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols"
)

// cmdLitmus runs a corpus of coherence litmus tests (tiny per-node scripts
// of gets, puts, and CASes with expected / allowed / forbidden final-state
// conditions) differentially across the three substrates: the model
// checker enumerates the complete reachable outcome set via the
// scripted-client plane, the simulator and fuzzer sample it through the
// Tempest machine, and the harness diffs the three sets. Forbidden
// outcomes become named counterexamples: a shortest checker trace
// (replay-confirmed with mc.ReplaySteps) and a delta-debugged fuzz
// schedule saved as a disk-replayable reproducer.
//
//	teapot litmus -corpus testdata/litmus
//	teapot litmus -corpus testdata/litmus/fail -mode all     # seeded bugs
//	teapot litmus -only mp -mode mc -json                    # outcome sets
//	teapot litmus -replay mp-litmus-repro.json               # re-judge
//
// The verdict is negative when any selected test fails or a replayed
// reproducer still does.
func cmdLitmus(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("litmus", stderr, "[flags]")
	var (
		corpus  = fs.String("corpus", filepath.Join("testdata", "litmus"), "directory of .lit litmus tests (non-recursive)")
		mode    = choice(fs, "mode", "all", "substrates to run", "sim", "fuzz", "mc", "all")
		budget  = intRange(fs, "budget", 0, 0, -1, "model-checker state budget per test (0 = the harness default); fuzz schedule counts scale with it")
		seed    = addSeed(fs)
		workers = addWorkers(fs)
		only    = fs.String("only", "", "run only tests whose name contains this substring")
		jsonOut = fs.Bool("json", false, "print the machine-readable outcome-set report to stdout (human output moves to stderr)")
		out     = fs.String("out", "", "write fuzz reproducers to this file (default <test>-litmus-repro.json)")
		replay  = fs.String("replay", "", "replay a saved litmus schedule instead of running the corpus (its test is looked up in -corpus)")
		report  = addReport(fs)
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *replay != "" {
		return litmusReplay(stdout, *replay, *corpus)
	}

	tests, err := litmus.LoadDir(*corpus)
	if err != nil {
		return err
	}
	if *only != "" {
		var sel []*litmus.Test
		for _, t := range tests {
			if strings.Contains(t.Name, *only) {
				sel = append(sel, t)
			}
		}
		if len(sel) == 0 {
			return fmt.Errorf("no test in %s matches -only %q", *corpus, *only)
		}
		tests = sel
	}

	var cov *obs.Coverage
	if *report != "" {
		for _, t := range tests[1:] {
			if t.Proto != tests[0].Proto {
				return fmt.Errorf("-report needs a single-protocol selection, corpus mixes %s and %s (narrow with -only)",
					tests[0].Proto, t.Proto)
			}
		}
		cov = obs.NewCoverage()
	}

	// With -json, stdout is reserved for the report document.
	hout := stdout
	if *jsonOut {
		hout = stderr
	}

	opt := litmus.Options{Mode: *mode, Budget: *budget, Seed: *seed, Workers: *workers, Coverage: cov}
	var results []*litmus.Result
	failed := 0
	for _, t := range tests {
		res, err := litmus.Run(t, opt)
		if err != nil {
			return err
		}
		results = append(results, res)
		printLitmusResult(hout, res)
		if res.Failure() != nil {
			failed++
			if err := saveReproducers(hout, res, *out); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(hout, "corpus %s: %d test(s), %d failed\n", *corpus, len(tests), failed)

	if *jsonOut {
		data, err := litmus.NewReport(*corpus, *mode, results).Encode()
		if err != nil {
			return err
		}
		stdout.Write(data)
	}
	if *report != "" {
		if err := writeLitmusManifest(*report, *corpus, *mode, tests, results, cov, *seed); err != nil {
			return err
		}
	}
	if failed > 0 {
		return errNegative
	}
	return nil
}

// printLitmusResult renders one test's differential verdict.
func printLitmusResult(w io.Writer, res *litmus.Result) {
	t := res.Test
	shape := fmt.Sprintf("%s %dx%d", t.Proto, t.Nodes, len(t.Blocks))
	if t.Net != "" {
		shape += " net=" + t.Net
	}
	sets := ""
	for _, m := range res.Modes {
		switch m {
		case "mc":
			sets += fmt.Sprintf(" mc=%d", len(res.MC))
		case "sim":
			sets += fmt.Sprintf(" sim=%d", len(res.Sim))
		case "fuzz":
			sets += fmt.Sprintf(" fuzz=%d", len(res.Fuzz))
		}
	}
	verdict := "ok"
	if f := res.Failure(); f != nil {
		verdict = f.Class
	}
	fmt.Fprintf(w, "%-16s (%s): modes %s, %d mc states, outcomes%s, mc-only=%d — %s\n",
		t.Name, shape, strings.Join(res.Modes, "+"), res.MCStates, sets, len(res.MCOnly()), verdict)
	for _, k := range res.MCOnly() {
		fmt.Fprintf(w, "  mc-only outcome (sampling gap): %s\n", k)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILURE %s: %s\n", t.Name, f)
		if f.MCViolation != nil {
			for _, wait := range f.MCViolation.Waits {
				fmt.Fprintf(w, "    %s\n", wait)
			}
		}
	}
}

// saveReproducers writes each fuzz failure's shrunk schedule next to the
// run (or at -out) and re-judges it from disk: the reproducer must carry
// everything needed to fail again, independent of this process.
func saveReproducers(w io.Writer, res *litmus.Result, outPath string) error {
	for _, f := range res.Failures {
		if f.Schedule == nil {
			continue
		}
		fmt.Fprintf(w, "  minimal reproducer: %d decision(s)\n", len(f.Schedule.Decisions))
		path := outPath
		if path == "" {
			path = res.Test.Name + "-litmus-repro.json"
		}
		if err := f.Schedule.Save(path); err != nil {
			return err
		}
		loaded, err := fuzz.Load(path)
		if err != nil {
			return err
		}
		class, desc, _, err := litmus.Replay(res.Test, loaded, litmus.Options{})
		if err != nil {
			return err
		}
		if class != f.Class {
			return fmt.Errorf("saved reproducer %s replays as %q (%s), want %q", path, class, desc, f.Class)
		}
		fmt.Fprintf(w, "  reproducer written to %s and replays from disk (replay with: teapot litmus -replay %s)\n", path, path)
	}
	return nil
}

// litmusReplay re-judges a saved litmus schedule against its test, which
// it looks up by name in the corpus directory and then in its fail/
// subdirectory (negative-path reproducers reference those).
func litmusReplay(stdout io.Writer, path, corpus string) error {
	s, err := fuzz.Load(path)
	if err != nil {
		return err
	}
	if s.Litmus == "" {
		return fmt.Errorf("%s is not a litmus schedule (replay it with teapot fuzz -replay)", path)
	}
	var t *litmus.Test
	for _, dir := range []string{corpus, filepath.Join(corpus, "fail")} {
		tests, _ := litmus.LoadDir(dir) // a missing fail/ is not an error
		for _, cand := range tests {
			if t == nil && cand.Name == s.Litmus {
				t = cand
			}
		}
	}
	if t == nil {
		return fmt.Errorf("test %q not found in %s (or its fail/ subdirectory); point -corpus at its corpus", s.Litmus, corpus)
	}
	class, desc, applied, err := litmus.Replay(t, s, litmus.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replaying %s against litmus %s\n", path, t.Name)
	failure := ""
	if class != "" {
		failure = class + ": " + desc
	}
	err = replayVerdict(stdout, s, applied, failure)
	if class != "" && s.Expect != "" && class != s.Expect {
		fmt.Fprintf(stdout, "note: schedule expected class %q\n", s.Expect)
	}
	return err
}

// writeLitmusManifest lowers the corpus run into the shared run-manifest
// schema: one manifest per run, carrying the aggregate litmus stats and the
// coverage union of every substrate of every test. Its network is the
// tests' fault model as every tool writes it, or "" when the tests' models
// differ (the per-test record is in -json).
func writeLitmusManifest(path, corpus, mode string, tests []*litmus.Test, results []*litmus.Result, cov *obs.Coverage, seed uint64) error {
	nodes, blocks, net := 0, 0, ""
	var first netmodel.Model
	for i, t := range tests {
		nodes = max(nodes, t.Nodes)
		blocks = max(blocks, len(t.Blocks))
		m, err := netmodel.Parse(t.Net)
		if err != nil {
			return err
		}
		switch {
		case i == 0:
			first, net = m, m.String()
		case m != first:
			net = ""
		}
	}
	ls := &manifest.LitmusStats{Corpus: corpus, Mode: mode, Tests: len(results)}
	for _, res := range results {
		ls.MCStates += res.MCStates
		if f := res.Failure(); f != nil {
			ls.Failed++
			if ls.Verdict == "" {
				ls.Verdict = fmt.Sprintf("%s: %s", res.Test.Name, f)
			}
		}
	}
	spec, err := protocols.Spec(tests[0].Proto, nodes, blocks)
	if err != nil {
		return err
	}
	man := newManifest("teapot-litmus", tests[0].Proto, nodes, blocks, net, seed, cov, spec.Proto)
	man.Litmus = ls
	return manifest.Write(path, man)
}
