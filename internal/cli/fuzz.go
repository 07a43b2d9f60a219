package cli

import (
	"fmt"
	"io"
	"time"

	"teapot/internal/fuzz"
	"teapot/internal/manifest"
	"teapot/internal/mc"
	"teapot/internal/obs"
)

// cmdFuzz drives the simulated Tempest machine through seeded randomized
// schedules (delivery order, node interleaving, network faults), judges
// every run with the coherence oracle, shrinks the first failure to a
// minimal replayable reproducer by delta debugging, and can cross-check
// the result against the model checker.
//
//	teapot fuzz -proto stache-ft -net drop=1 -schedules 500
//	teapot fuzz -proto stache-ft-buggy -net drop=1 -seed 6 -out repro.json
//	teapot fuzz -replay repro.json          # re-judge a saved reproducer
//
// The verdict is negative when a schedule fails (a coherence violation or a
// protocol failure) or a replayed one still does.
func cmdFuzz(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("fuzz", stderr, "[flags]")
	run := addRun(fs, "stache", 3, 2)
	var (
		seed      = addSeed(fs)
		schedules = intRange(fs, "schedules", 500, 1, 0, "schedules to run (campaign stops at the first failure)")
		ops       = intRange(fs, "ops", 40, 1, 0, "workload operations per node per schedule")
		rate      = fs.Float64("rate", 0, fmt.Sprintf("per-choice deviation probability (0 = default %.2f)", fuzz.DefaultRate))
		out       = fs.String("out", "", "write the shrunk reproducer schedule to this file (default <proto>-repro.json)")
		replay    = fs.String("replay", "", "replay a saved schedule instead of fuzzing; all run-shape flags are taken from the file")
		noShrink  = fs.Bool("no-shrink", false, "keep the first failing schedule as-is instead of delta-debugging it")
		mcConfirm = fs.Bool("mc-confirm", false, "after a failure, cross-check with the model checker and differentially replay its counterexample")
		mcStates  = intRange(fs, "mc-states", 5_000_000, 0, -1, "state budget for -mc-confirm (0 = unlimited)")
		report    = addReport(fs)
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}

	if *replay != "" {
		s, err := fuzz.Load(*replay)
		if err != nil {
			return err
		}
		rep, err := fuzz.ReplaySchedule(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replaying %s\n", s)
		failure := ""
		if rep.Failed() {
			failure = fuzzVerdict(rep)
		}
		return replayVerdict(stdout, s, rep.Applied, failure)
	}

	var cov *obs.Coverage
	if *report != "" {
		cov = obs.NewCoverage()
	}
	f, err := fuzz.New(fuzz.Config{
		Proto: *run.Proto, Nodes: *run.Nodes, Blocks: *run.Blocks,
		Net: run.Net.Model, Schedules: *schedules, OpsPerNode: *ops,
		Seed: *seed, Rate: *rate, Coverage: cov,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := f.Fuzz()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	net := run.Net.Model.String()
	if net == "" {
		net = "none"
	}
	fmt.Fprintf(stdout, "protocol %s (%d nodes, %d blocks, net %s): %d schedule(s), %d choice points, %s",
		*run.Proto, *run.Nodes, *run.Blocks, net, res.Ran, res.Steps, elapsed.Round(time.Millisecond))
	if elapsed > 0 {
		fmt.Fprintf(stdout, " (%.0f sched/s)", perSec(float64(res.Ran), elapsed))
	}
	fmt.Fprintln(stdout)

	// writeManifest writes the campaign's run manifest; the last three
	// arguments describe the failure, if there was one.
	writeManifest := func(verdict string, shrunk int, tail []string) error {
		if *report == "" {
			return nil
		}
		man := newManifest("teapot-fuzz", *run.Proto, *run.Nodes, *run.Blocks, f.Spec().Net.String(), f.Seed(), cov, f.Spec().Proto)
		man.FlightRecorder = tail
		man.Fuzz = &manifest.FuzzStats{
			Schedules:       res.Ran,
			ChoicePoints:    res.Steps,
			ElapsedSec:      elapsed.Seconds(),
			SchedPerSec:     perSec(float64(res.Ran), elapsed),
			Failed:          res.Failure != nil,
			Verdict:         verdict,
			ShrunkDecisions: shrunk,
		}
		return manifest.Write(*report, man)
	}

	if res.Failure == nil {
		fmt.Fprintln(stdout, "no violations: every schedule ran to completion coherently")
		return writeManifest("", 0, nil)
	}

	sched := res.Failure.Schedule
	fmt.Fprintf(stdout, "FAILURE at schedule %d (%d decision(s)): %s\n", res.Ran, len(sched.Decisions), fuzzVerdict(res.Failure.Report))
	if !*noShrink {
		small, tries := f.Shrink(sched)
		fmt.Fprintf(stdout, "shrunk %d -> %d decision(s) in %d replay(s)\n", len(sched.Decisions), len(small.Decisions), tries)
		sched = small
	}
	fmt.Fprintf(stdout, "minimal reproducer: %d decision(s)\n", len(sched.Decisions))

	path := *out
	if path == "" {
		path = *run.Proto + "-repro.json"
	}
	if err := sched.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reproducer written to %s (replay with: teapot fuzz -replay %s)\n", path, path)

	if *report != "" {
		// Replay the minimal reproducer with a flight recorder teed in, so
		// the manifest (and stderr) carry the event tail leading into the
		// violation.
		fr := obs.NewFlightRecorder(0)
		f.ReplayObserved(sched, fr)
		tail := flightTail(stderr, "failing schedule tail", fr, f.Spec().Proto)
		if err := writeManifest(fuzzVerdict(res.Failure.Report), len(sched.Decisions), tail); err != nil {
			return err
		}
	}

	// Re-judge from the on-disk artifact: the reproducer must carry
	// everything needed to fail again, independent of this process.
	loaded, err := fuzz.Load(path)
	if err != nil {
		return err
	}
	rep, err := fuzz.ReplaySchedule(loaded)
	if err != nil {
		return err
	}
	if !rep.Failed() {
		return fmt.Errorf("saved reproducer did not reproduce the failure (schedule %s)", loaded)
	}
	fmt.Fprintf(stdout, "reproducer replays from disk: %s\n", fuzzVerdict(rep))

	if *mcConfirm {
		mcres, err := f.ConfirmMC(*mcStates)
		if err != nil {
			return err
		}
		if mcres.Violation == nil {
			fmt.Fprintf(stdout, "mc-confirm: checker found NO violation in %d states — fuzz failure not confirmed\n", mcres.States)
		} else {
			fmt.Fprintf(stdout, "mc-confirm: checker agrees (%s in %d states, %d-step counterexample)\n",
				mcres.Violation.Kind, mcres.States, len(mcres.Violation.Steps))
			if err := mc.DiffReplay(f.Spec().MCConfig(), mcres.Violation.Steps); err != nil {
				return fmt.Errorf("differential replay of checker counterexample: %w", err)
			}
			fmt.Fprintln(stdout, "mc-confirm: counterexample replays straight-line and through the checker's decode/derive/encode path with per-step state agreement")
		}
	}
	return errNegative
}

// replayVerdict ends a -replay of s, of whose decisions applied took effect
// and which failed with failure ("" = ran clean). A decision takes effect
// only where the run offers its kind of choice, with that many options, at
// that step, so a clean run that skipped one is not the run the file
// describes, and is no verdict.
func replayVerdict(stdout io.Writer, s *fuzz.Schedule, applied int, failure string) error {
	fmt.Fprintf(stdout, "applied %d of %d decisions\n", applied, len(s.Decisions))
	switch {
	case failure != "":
		fmt.Fprintf(stdout, "reproduced: %s\n", failure)
		return errNegative
	case applied < len(s.Decisions):
		return fmt.Errorf("the run finished without a violation, but only %d of the schedule's %d decisions applied: the file does not describe a run of this build", applied, len(s.Decisions))
	}
	fmt.Fprintln(stdout, "schedule ran clean: no violation")
	return nil
}

func fuzzVerdict(r *fuzz.Report) string {
	switch {
	case r.Violation != nil:
		return r.Violation.Error()
	case r.RunErr != nil:
		return r.RunErr.Error()
	}
	return "clean"
}
