// Teapot-fuzz drives the simulated Tempest machine through seeded
// randomized schedules (delivery order, node interleaving, network faults),
// judges every run with the coherence oracle, shrinks the first failure to
// a minimal replayable reproducer by delta debugging, and can cross-check
// the result against the model checker.
//
// Usage:
//
//	teapot-fuzz -proto stache-ft -net drop=1 -schedules 500
//	teapot-fuzz -proto stache-ft-buggy -net drop=1 -seed 6 -out repro.json
//	teapot-fuzz -replay repro.json          # re-judge a saved reproducer
//
// Exit status: 0 when every schedule ran clean, 2 when a violation (or
// protocol failure) was found or reproduced, 1 on usage/internal errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"teapot/internal/cliflags"
	"teapot/internal/fuzz"
	"teapot/internal/manifest"
	"teapot/internal/mc"
	"teapot/internal/obs"
	"teapot/internal/runtime"
)

func main() {
	run := cliflags.AddRun(flag.CommandLine, "stache", 3, 2)
	var (
		schedules = flag.Int("schedules", 500, "schedules to run (campaign stops at the first failure)")
		ops       = flag.Int("ops", 40, "workload operations per node per schedule")
		rate      = flag.Float64("rate", 0, fmt.Sprintf("per-choice deviation probability (0 = default %.2f)", fuzz.DefaultRate))
		out       = flag.String("out", "", "write the shrunk reproducer schedule to this file (default <proto>-repro.json next to the violation)")
		replay    = flag.String("replay", "", "replay a saved schedule instead of fuzzing; all run-shape flags are taken from the file")
		noShrink  = flag.Bool("no-shrink", false, "keep the first failing schedule as-is instead of delta-debugging it")
		mcConfirm = flag.Bool("mc-confirm", false, "after a failure, cross-check with the model checker and differentially replay its counterexample")
		mcStates  = flag.Int("mc-states", 5_000_000, "state budget for -mc-confirm (0 = unlimited)")
		report    = cliflags.AddReport(flag.CommandLine)
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayFile(*replay))
	}

	var cov *obs.Coverage
	if *report != "" {
		cov = obs.NewCoverage()
	}
	f, err := fuzz.New(fuzz.Config{
		Proto: *run.Proto, Nodes: *run.Nodes, Blocks: *run.Blocks,
		Net: run.Net.Model, Schedules: *schedules, OpsPerNode: *ops,
		Seed: *run.Seed, Rate: *rate, Coverage: cov,
	})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	res, err := f.Fuzz()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	rps := float64(res.Ran) / elapsed.Seconds()
	fmt.Printf("protocol %s (%d nodes, %d blocks, net %s): %d schedule(s), %d choice points, %s (%.0f sched/s)\n",
		*run.Proto, *run.Nodes, *run.Blocks, nameNet(run.Net.Model.String()), res.Ran, res.Steps, elapsed.Round(time.Millisecond), rps)

	if res.Failure == nil {
		fmt.Println("no violations: every schedule ran to completion coherently")
		if *report != "" {
			writeManifest(*report, f, *run.Proto, *run.Nodes, *run.Blocks,
				cov, res, elapsed, "", 0, nil)
		}
		return
	}

	sched := res.Failure.Schedule
	fmt.Printf("FAILURE at schedule %d (%d decision(s)): %s\n", res.Ran, len(sched.Decisions), verdict(res.Failure.Report))
	if !*noShrink {
		small, tries := f.Shrink(sched)
		fmt.Printf("shrunk %d -> %d decision(s) in %d replay(s)\n", len(sched.Decisions), len(small.Decisions), tries)
		sched = small
	}
	fmt.Printf("minimal reproducer: %d decision(s)\n", len(sched.Decisions))

	path := *out
	if path == "" {
		path = *run.Proto + "-repro.json"
	}
	if err := sched.Save(path); err != nil {
		fatal(err)
	}
	fmt.Printf("reproducer written to %s (replay with: teapot-fuzz -replay %s)\n", path, path)

	if *report != "" {
		// Replay the minimal reproducer with a flight recorder teed in, so
		// the manifest (and stderr) carry the event tail leading into the
		// violation.
		fr := obs.NewFlightRecorder(0)
		f.ReplayObserved(sched, fr)
		frLines := fr.TailLines(0, runtime.ObsNames(f.Spec().Proto))
		fmt.Fprintln(os.Stderr, "flight recorder (failing schedule tail):")
		for _, l := range frLines {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
		writeManifest(*report, f, *run.Proto, *run.Nodes, *run.Blocks,
			cov, res, elapsed, verdict(res.Failure.Report), len(sched.Decisions), frLines)
	}

	// Re-judge from the on-disk artifact: the reproducer must carry
	// everything needed to fail again, independent of this process.
	loaded, err := fuzz.Load(path)
	if err != nil {
		fatal(err)
	}
	rep, err := fuzz.ReplaySchedule(loaded)
	if err != nil {
		fatal(err)
	}
	if !rep.Failed() {
		fatal(fmt.Errorf("saved reproducer did not reproduce the failure (schedule %s)", loaded))
	}
	fmt.Printf("reproducer replays from disk: %s\n", verdict(rep))

	if *mcConfirm {
		mcres, err := f.ConfirmMC(*mcStates)
		if err != nil {
			fatal(err)
		}
		if mcres.Violation == nil {
			fmt.Printf("mc-confirm: checker found NO violation in %d states — fuzz failure not confirmed\n", mcres.States)
		} else {
			fmt.Printf("mc-confirm: checker agrees (%s in %d states, %d-step counterexample)\n",
				mcres.Violation.Kind, mcres.States, len(mcres.Violation.Steps))
			if err := mc.DiffReplay(f.Spec().MCConfig(), mcres.Violation.Steps); err != nil {
				fatal(fmt.Errorf("differential replay of checker counterexample: %w", err))
			}
			fmt.Println("mc-confirm: counterexample replays straight-line and through the checker's decode/clone/encode path with per-step state agreement")
		}
	}
	os.Exit(2)
}

// writeManifest assembles and writes the campaign's run manifest.
func writeManifest(path string, f *fuzz.Fuzzer, proto string, nodes, blocks int,
	cov *obs.Coverage, res *fuzz.Result, elapsed time.Duration,
	verdictStr string, shrunk int, frLines []string) {
	fs := &manifest.FuzzStats{
		Schedules:       res.Ran,
		ChoicePoints:    res.Steps,
		ElapsedSec:      elapsed.Seconds(),
		Failed:          res.Failure != nil,
		Verdict:         verdictStr,
		ShrunkDecisions: shrunk,
	}
	if s := elapsed.Seconds(); s > 0 {
		fs.SchedPerSec = float64(res.Ran) / s
	}
	man := &manifest.Manifest{
		ManifestVersion: manifest.Version,
		Tool:            "teapot-fuzz",
		Protocol:        proto,
		Nodes:           nodes,
		Blocks:          blocks,
		Net:             f.Spec().Net.String(),
		Seed:            f.Seed(),
		Coverage:        cov.Report(runtime.ObsNames(f.Spec().Proto)),
		Fuzz:            fs,
		FlightRecorder:  frLines,
	}
	if err := manifest.Write(path, man); err != nil {
		fatal(err)
	}
}

// replayFile re-judges a saved schedule. Exit code mirrors the campaign
// path: 2 when the failure reproduces, 0 when the schedule runs clean.
func replayFile(path string) int {
	s, err := fuzz.Load(path)
	if err != nil {
		fatal(err)
	}
	rep, err := fuzz.ReplaySchedule(s)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %s\n", s)
	if !rep.Failed() {
		fmt.Println("schedule ran clean: no violation")
		return 0
	}
	fmt.Printf("reproduced: %s\n", verdict(rep))
	return 2
}

func verdict(r *fuzz.Report) string {
	switch {
	case r.Violation != nil:
		return r.Violation.Error()
	case r.RunErr != nil:
		return r.RunErr.Error()
	}
	return "clean"
}

func nameNet(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teapot-fuzz:", err)
	os.Exit(1)
}
