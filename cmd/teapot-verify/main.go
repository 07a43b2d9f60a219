// Teapot-verify model-checks a bundled protocol by exhaustive state-space
// exploration (§7 of the paper), reporting the number of states explored
// and, on a violation, the event trace leading to it.
//
// Usage:
//
//	teapot-verify -proto stache -nodes 2 -blocks 1 -net reorder=1
//	teapot-verify -proto stache -net drop=1       # found: lost-message stall
//	teapot-verify -proto stache-ft -net drop=1,dup=1
//	teapot-verify -proto stache-buggy             # finds the seeded deadlock
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"teapot/internal/cliflags"
	"teapot/internal/manifest"
	"teapot/internal/mc"
	"teapot/internal/obs"
	"teapot/internal/runtime"
)

func main() {
	run := cliflags.AddRun(flag.CommandLine, "stache", 2, 1)
	var (
		maxState = flag.Int("max-states", 0, "abort after exploring this many states (0 = unlimited)")
		symmetry = flag.String("symmetry", "auto", "symmetry reduction: auto (reduce when the static certificate and support vouches allow) | off | on (fail unless reduction is possible)")
		progress = flag.String("progress", "auto", "live per-layer progress on stderr: auto (only when stderr is a terminal) | always | never")
		stats    = flag.Bool("stats", false, "print a final exploration stats block")
		jsonOut  = flag.Bool("json", false, "write the run manifest as JSON to stdout instead of the plain-text report")
		report   = cliflags.AddReport(flag.CommandLine)
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	// Historical default: with no -net flag, verify under "1 reordering
	// max" (the paper's configuration).
	netGiven := false
	flag.Visit(func(f *flag.Flag) { netGiven = netGiven || f.Name == "net" })
	if !netGiven {
		run.Net.Model.Reorder = 1
	}

	spec, err := run.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "teapot-verify:", err)
		os.Exit(1)
	}
	spec.MaxStates = *maxState
	spec.Symmetry, err = mc.ParseSymmetryMode(*symmetry)
	if err != nil {
		fmt.Fprintln(os.Stderr, cliflags.BadFlag("teapot-verify", "symmetry", *symmetry, "auto, off, or on"))
		os.Exit(1)
	}

	switch *progress {
	case "always", "auto", "never":
	default:
		fmt.Fprintln(os.Stderr, cliflags.BadFlag("teapot-verify", "progress", *progress, "auto, always, or never"))
		os.Exit(1)
	}
	if *progress == "always" || (*progress == "auto" && stderrIsTerminal()) {
		pw := &mc.ProgressWriter{W: os.Stderr}
		spec.Progress = pw.Report
	}

	// Manifest plumbing: accumulate coverage during exploration and keep the
	// final progress snapshot (the only carrier of shard balance).
	wantManifest := *jsonOut || *report != ""
	var cov *obs.Coverage
	var lastProg mc.ProgressInfo
	if wantManifest {
		cov = obs.NewCoverage()
		prev := spec.Progress
		spec.Progress = func(p mc.ProgressInfo) {
			lastProg = p
			if prev != nil {
				prev(p)
			}
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teapot-verify:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "teapot-verify:", err)
			os.Exit(1)
		}
	}

	cfg := spec.MCConfig()
	cfg.Coverage = cov
	res, err := mc.Check(cfg)
	if *cpuProf != "" {
		// Stopped explicitly: the violation path exits with a nonzero
		// status, which would skip a deferred stop.
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teapot-verify:", err)
		os.Exit(1)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "teapot-verify:", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "teapot-verify:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if wantManifest {
		man := &manifest.Manifest{
			ManifestVersion: manifest.Version,
			Tool:            "teapot-verify",
			Protocol:        *run.Proto,
			Nodes:           *run.Nodes,
			Blocks:          *run.Blocks,
			Net:             spec.Net.String(),
			Coverage:        cov.Report(runtime.ObsNames(spec.Proto)),
			MC:              mcStats(res, lastProg),
		}
		if res.Violation != nil && len(res.Violation.Steps) > 0 {
			// Replay the counterexample with a flight recorder attached so
			// the manifest (and stderr) carry the event tail leading into
			// the violation.
			fr := obs.NewFlightRecorder(0)
			rcfg := spec.MCConfig()
			rcfg.Obs = fr
			if rerr := mc.ReplaySteps(rcfg, res.Violation.Steps, nil); rerr != nil {
				fmt.Fprintln(os.Stderr, "teapot-verify: flight-recorder replay:", rerr)
			} else {
				man.FlightRecorder = fr.TailLines(0, runtime.ObsNames(spec.Proto))
				fmt.Fprintln(os.Stderr, "flight recorder (counterexample tail):")
				for _, l := range man.FlightRecorder {
					fmt.Fprintln(os.Stderr, "  "+l)
				}
			}
		}
		if *report != "" {
			if err := manifest.Write(*report, man); err != nil {
				fmt.Fprintln(os.Stderr, "teapot-verify:", err)
				os.Exit(1)
			}
		}
		if *jsonOut {
			data, err := man.Encode()
			if err != nil {
				fmt.Fprintln(os.Stderr, "teapot-verify:", err)
				os.Exit(1)
			}
			os.Stdout.Write(data)
			if res.Violation != nil {
				os.Exit(2)
			}
			return
		}
	}

	net := ""
	if s := spec.Net.String(); s != "" {
		net = fmt.Sprintf(", net %s", s)
	}
	sym := ""
	if res.SymmetryGroup > 1 {
		sym = fmt.Sprintf(", symmetry /%d", res.SymmetryGroup)
	}
	fmt.Printf("protocol %s: %d states, %d transitions, depth %d, %d workers%s%s, %s\n",
		*run.Proto, res.States, res.Transitions, res.MaxDepth, res.Workers, net, sym, res.Elapsed)
	if res.SymmetryNote != "" {
		fmt.Printf("  symmetry reduction off: %s\n", res.SymmetryNote)
	}
	if *stats {
		rate := 0.0
		if s := res.Elapsed.Seconds(); s > 0 {
			rate = float64(res.States) / s
		}
		dedup, perState := 0.0, 0.0
		if res.States > 0 {
			dedup = float64(res.Transitions) / float64(res.States)
			perState = float64(res.VisitedBytes) / float64(res.States)
		}
		fmt.Printf("  peak frontier:  %d states\n", res.PeakFrontier)
		fmt.Printf("  decodes:        %d (one per expanded state)\n", res.Decodes)
		fmt.Printf("  visited set:    %s (%.0f bytes/state)\n", mc.FormatBytes(res.VisitedBytes), perState)
		fmt.Printf("  rate:           %.0f states/s\n", rate)
		fmt.Printf("  dedup ratio:    %.2f transitions/state\n", dedup)
		fmt.Printf("  symmetry group: %d\n", res.SymmetryGroup)
	}
	if res.Violation == nil {
		fmt.Println("verified: no deadlock, no unexpected messages, coherence holds")
		return
	}
	fmt.Printf("VIOLATION %s\n", res.Violation)
	os.Exit(2)
}

// mcStats lowers a checker result (plus the final progress snapshot, the
// only carrier of shard balance) into manifest form.
func mcStats(res *mc.Result, last mc.ProgressInfo) *manifest.MCStats {
	st := &manifest.MCStats{
		States:        res.States,
		Transitions:   res.Transitions,
		MaxDepth:      res.MaxDepth,
		Workers:       res.Workers,
		ElapsedSec:    res.Elapsed.Seconds(),
		PeakFrontier:  res.PeakFrontier,
		Decodes:       res.Decodes,
		VisitedBytes:  res.VisitedBytes,
		ShardMin:      last.ShardMin,
		ShardMax:      last.ShardMax,
		SymmetryGroup: res.SymmetryGroup,
		SymmetryNote:  res.SymmetryNote,
		Violation:     manifestViolation(res.Violation),
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		st.StatesPerSec = float64(res.States) / s
	}
	if res.States > 0 {
		st.BytesPerState = float64(res.VisitedBytes) / float64(res.States)
		st.DedupRatio = float64(res.Transitions) / float64(res.States)
	}
	return st
}

// manifestViolation converts a checker counterexample into manifest form.
func manifestViolation(v *mc.Violation) *manifest.Violation {
	if v == nil {
		return nil
	}
	mv := &manifest.Violation{Kind: v.Kind, Msg: v.Msg, Trace: v.Trace}
	for _, s := range v.Steps {
		mv.Steps = append(mv.Steps, manifest.Step{
			Kind: s.Kind, From: s.From, To: s.To, Idx: s.Idx,
			Node: s.Node, Block: s.Block, Event: s.Event, Msg: s.Msg,
		})
	}
	return mv
}

// stderrIsTerminal reports whether stderr is attached to a character
// device. The -progress auto gate: live lines are for humans watching a
// terminal, not for logs captured by redirection or CI.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
