package cli

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"teapot/internal/core"
	"teapot/internal/manifest"
	"teapot/internal/mc"
	"teapot/internal/obs"
)

// cmdVerify model-checks a bundled protocol by exhaustive state-space
// exploration (§7 of the paper), reporting the number of states explored
// and, on a violation, the event trace leading to it.
//
//	teapot verify -proto stache -nodes 2 -blocks 1 -net reorder=1
//	teapot verify -proto stache -net drop=1       # found: lost-message stall
//	teapot verify -proto stache-ft -net drop=1,dup=1
//	teapot verify -proto stache-buggy             # finds the seeded deadlock
//
// A violation — a -max-states cut included: a truncated exploration proves
// nothing — is the negative verdict. A protocol -symmetry=on cannot reduce
// is refused with the refuting witness: no verdict.
func cmdVerify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("verify", stderr, "[flags]")
	run := addRun(fs, "stache", 2, 1)
	var (
		workers  = addWorkers(fs)
		maxState = intRange(fs, "max-states", 0, 0, -1, "abort after exploring this many states (0 = unlimited)")
		symmetry = choice(fs, "symmetry", "auto", "symmetry reduction — auto: reduce when the static certificate and support vouches allow; on: fail unless reduction is possible", "auto", "off", "on")
		progress = choice(fs, "progress", "auto", "live per-layer progress on stderr (auto: only when stderr is a terminal)", "auto", "always", "never")
		stats    = fs.Bool("stats", false, "print a final exploration stats block")
		jsonOut  = fs.Bool("json", false, "write the run manifest as JSON to stdout instead of the plain-text report")
		report   = addReport(fs)
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file after the run")
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	// With no -net flag, verify under "1 reordering max" (the paper's
	// configuration).
	if !isSet(fs, "net") {
		run.Net.Model.Reorder = 1
	}
	spec, err := run.spec()
	if err != nil {
		return err
	}
	spec.Workers, spec.MaxStates = *workers, *maxState
	if spec.Symmetry, err = mc.ParseSymmetryMode(*symmetry); err != nil {
		return err
	}
	if *progress == "always" || (*progress == "auto" && isTerminal(stderr)) {
		pw := &mc.ProgressWriter{W: stderr}
		spec.Progress = pw.Report
	}

	// Manifest plumbing: accumulate coverage during exploration.
	wantManifest := *jsonOut || *report != ""
	if wantManifest {
		spec.Coverage = obs.NewCoverage()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := core.Check(spec)
	if err != nil {
		return err
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	var verdict error
	if res.Violation != nil {
		verdict = errNegative
	}
	st := mcStats(res)

	if wantManifest {
		man := newManifest("teapot-verify", *run.Proto, *run.Nodes, *run.Blocks, spec.Net.String(), 0, spec.Coverage, spec.Proto)
		man.MC = st
		if res.Violation != nil && len(res.Violation.Steps) > 0 {
			// Replay the counterexample with a flight recorder attached so
			// the manifest (and stderr) carry the event tail leading into
			// the violation.
			fr := obs.NewFlightRecorder(0)
			spec.Obs = fr
			if err := mc.ReplaySteps(spec.Config, res.Violation.Steps, nil); err != nil {
				return fmt.Errorf("flight-recorder replay: %w", err)
			}
			man.FlightRecorder = flightTail(stderr, "counterexample tail", fr, spec.Proto)
		}
		if *report != "" {
			if err := manifest.Write(*report, man); err != nil {
				return err
			}
		}
		if *jsonOut {
			data, err := man.Encode()
			if err != nil {
				return err
			}
			stdout.Write(data)
			return verdict
		}
	}

	sym := ""
	if res.SymmetryGroup > 1 {
		sym = fmt.Sprintf(", symmetry /%d", res.SymmetryGroup)
	}
	fmt.Fprintf(stdout, "protocol %s: %d states, %d transitions, depth %d, %d workers, net %s%s, %s\n",
		*run.Proto, res.States, res.Transitions, res.MaxDepth, res.Workers, spec.Net, sym, res.Elapsed)
	if res.SymmetryNote != "" {
		fmt.Fprintf(stdout, "  symmetry reduction off: %s\n", res.SymmetryNote)
	}
	if *stats {
		fmt.Fprintf(stdout, "  peak frontier:  %d states\n", res.PeakFrontier)
		fmt.Fprintf(stdout, "  decodes:        %d (states decoded into a world, at most once each)\n", res.Decodes)
		fmt.Fprintf(stdout, "  keys:           %d bytes mean, %.0f%% encoded per successor\n",
			res.KeyBytes/int64(max(res.Transitions, 1)), 100*float64(res.KeyBytesEncoded)/float64(max(res.KeyBytes, 1)))
		fmt.Fprintf(stdout, "  visited set:    %s (%.0f bytes/state)\n", mc.FormatBytes(res.VisitedBytes), st.BytesPerState)
		fmt.Fprintf(stdout, "  segments:       %d distinct, %s", res.Segments, mc.FormatBytes(res.SegmentBytes))
		if res.SymmetryGroup > 1 {
			fmt.Fprintf(stdout, "; remap table %d pieces, %s", res.RemapPieces, mc.FormatBytes(res.RemapBytes))
		}
		fmt.Fprintln(stdout)
		if m := res.Memo; m.Bypass != "" {
			fmt.Fprintf(stdout, "  memo:           off: %s\n", m.Bypass)
		} else {
			fmt.Fprintf(stdout, "  memo:           %d entries, %s, %.1f%% of %d handler runs replayed\n",
				m.Entries, mc.FormatBytes(m.Bytes), 100*float64(m.Hits)/float64(max(m.Runs, 1)), m.Runs)
		}
		fmt.Fprintf(stdout, "  rate:           %.0f states/s\n", st.StatesPerSec)
		fmt.Fprintf(stdout, "  dedup ratio:    %.2f transitions/state\n", st.DedupRatio)
		fmt.Fprintf(stdout, "  symmetry group: %d\n", res.SymmetryGroup)
	}
	if res.Violation == nil {
		// Say what was checked: SWMR is evaluated only where the table asks.
		coherence := "coherence holds"
		if !spec.CheckCoherence {
			coherence = "coherence not checked (phases are deliberately inconsistent)"
		}
		fmt.Fprintf(stdout, "verified: no deadlock, no unexpected messages, %s\n", coherence)
	} else {
		fmt.Fprintf(stdout, "VIOLATION %s\n", res.Violation)
	}
	return verdict
}

// isTerminal reports whether w is a character device. The -progress=auto
// gate: live lines are for humans watching a terminal, not for logs
// captured by redirection or CI.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
