// Teapot-sim runs one benchmark workload on the simulated Tempest machine
// under a chosen protocol engine and prints the run statistics.
//
// Usage:
//
//	teapot-sim -workload gauss -nodes 32 -engine opt
//	teapot-sim -workload stencil -engine hw      # hand-written LCM baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"teapot/internal/cliflags"
	"teapot/internal/manifest"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/lcm"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

func main() {
	var (
		workload  = flag.String("workload", "gauss", "gauss | appbt | shallow | mp3d | adaptive | stencil | unstruct | prodcons")
		nodes     = flag.Int("nodes", 32, "number of nodes")
		iters     = flag.Int("iters", 4, "workload iterations")
		engine    = flag.String("engine", "opt", "hw (hand-written) | unopt | opt | ft (fault-tolerant Stache; the one to pair with -net)")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the run (open in about:tracing or ui.perfetto.dev)")
		showStats = flag.Bool("stats", false, "print the observability event summary after the run")
		seed      = flag.Uint64("seed", 1, "fault-injection RNG seed (same -net and -seed: same run; 0 = derive a stable seed from the run shape, as in every other tool)")
		report    = cliflags.AddReport(flag.CommandLine)
		net       = cliflags.AddNet(flag.CommandLine)
	)
	flag.Parse()

	spec := sim.WorkloadSpec{Nodes: *nodes, Iters: *iters, Seed: 99}
	var w *sim.Workload
	isLCM := false
	switch *workload {
	case "gauss":
		w = sim.Gauss(spec)
	case "appbt":
		w = sim.Appbt(spec)
	case "shallow":
		w = sim.Shallow(spec)
	case "mp3d":
		spec.Iters *= 4
		w = sim.Mp3d(spec)
	case "prodcons":
		w = sim.ProdCons(spec)
	case "adaptive":
		w, isLCM = sim.Adaptive(spec), true
	case "stencil":
		w, isLCM = sim.Stencil(spec), true
	case "unstruct":
		w, isLCM = sim.Unstruct(spec), true
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	// The compiled engines come from the protocol registry; the paper's two
	// baselines — the hand-written engines and the unoptimized compile — are
	// not registry entries and are wired here.
	protoName := "stache"
	switch {
	case *engine == "ft" && isLCM:
		fatal(fmt.Errorf("-engine ft is the fault-tolerant Stache; the LCM workloads have no fault-tolerant variant"))
	case *engine == "ft":
		protoName = "stache-ft"
	case isLCM:
		protoName = "lcm"
	}
	run, err := protocols.Spec(protoName, *nodes, w.Blocks)
	if err != nil {
		fatal(err)
	}
	run.Net, run.Seed, run.Program = net.Model, *seed, w.Trace
	var handWritten func(m runtime.Machine) tempest.Engine
	switch {
	case *engine == "hw" && isLCM:
		handWritten = func(m runtime.Machine) tempest.Engine { return lcm.NewHW(run.Proto, *nodes, w.Blocks, m) }
	case *engine == "hw":
		handWritten = func(m runtime.Machine) tempest.Engine { return stache.NewHW(run.Proto, *nodes, w.Blocks, m) }
	case *engine == "unopt" && isLCM:
		run.Proto = lcm.MustCompile(lcm.Base, false).Protocol
		run.Support = lcm.MustSupport(run.Proto, *nodes)
	case *engine == "unopt":
		run.Proto = stache.MustCompile(false).Protocol
		run.Support = stache.MustSupport(run.Proto)
	}
	simCfg := run.SimConfig()
	*seed = simCfg.Seed // -seed 0 derives a stable seed from the run shape
	if handWritten != nil {
		simCfg.MakeEngine = handWritten
	}

	var col *obs.Collector
	var cov *obs.Coverage
	if *traceOut != "" || *showStats || *report != "" {
		if *engine == "hw" {
			fatal(fmt.Errorf("-trace/-stats/-report need a Teapot engine (hand-written baselines emit no events); use -engine opt or unopt"))
		}
		col = obs.NewCollector(0)
	}
	if *report != "" {
		cov = obs.NewCoverage()
	}

	start := time.Now()
	simCfg.Obs = runSinks(col, cov)
	stats, err := sim.Run(simCfg)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}

	if *report != "" {
		ss := &manifest.SimStats{
			Cycles: stats.Cycles, Events: col.Total(),
			ElapsedSec: elapsed.Seconds(),
			Accesses:   stats.Accesses, Faults: stats.Faults,
			Messages: stats.Messages, Drops: stats.Drops,
			Dups: stats.Dups, Delays: stats.Delays, Timeouts: stats.Timeouts,
		}
		if s := elapsed.Seconds(); s > 0 {
			ss.EventsPerSec = float64(col.Total()) / s
		}
		man := &manifest.Manifest{
			ManifestVersion: manifest.Version,
			Tool:            "teapot-sim",
			Protocol:        protoName,
			Nodes:           *nodes,
			Blocks:          w.Blocks,
			Net:             net.Model.String(),
			Seed:            *seed,
			Coverage:        cov.Report(runtime.ObsNames(run.Proto)),
			Obs: &manifest.ObsSummary{
				Events: col.Total(), ByKind: col.KindCounts(),
				MaxQueueDepth: col.MaxQueueDepth(),
			},
			Sim: ss,
		}
		if err := manifest.Write(*report, man); err != nil {
			fatal(err)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, col.Events(), runtime.ObsNames(run.Proto)); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "teapot-sim: wrote %d events to %s\n", len(col.Events()), *traceOut)
	}
	fmt.Printf("workload %s (%d nodes, %d blocks, engine %s)\n", w.Name, *nodes, w.Blocks, *engine)
	fmt.Printf("  execution time: %d cycles\n", stats.Cycles)
	fmt.Printf("  accesses: %d   faults: %d   messages: %d\n", stats.Accesses, stats.Faults, stats.Messages)
	if net.Model.Active() {
		fmt.Printf("  network (%s, seed %d): %d dropped, %d duplicated, %d delayed; %d timeouts fired\n",
			net.Model, *seed, stats.Drops, stats.Dups, stats.Delays, stats.Timeouts)
	}
	fmt.Printf("  fault time: %d cycles (%.0f%% of node-cycles)\n", stats.FaultTime,
		100*float64(stats.FaultTime)/float64(stats.Cycles*int64(*nodes)))
	fmt.Printf("  protocol: %d handlers, %d statements, %d cycles\n",
		stats.Protocol.Handlers, stats.Protocol.Instrs, stats.ProtoTime)
	fmt.Printf("  continuations: %d heap, %d static; queue records: %d\n",
		stats.Protocol.HeapConts, stats.Protocol.StaticConts, stats.Protocol.QueueRecords)
	if *showStats {
		fmt.Print(col.Summary(runtime.ObsNames(run.Proto)))
	}
}

// runSinks tees the optional collector and coverage sinks, avoiding the
// classic non-nil interface holding a nil pointer: sim.Run checks Obs
// against nil.
func runSinks(c *obs.Collector, cov *obs.Coverage) obs.Sink {
	var sinks []obs.Sink
	if c != nil {
		sinks = append(sinks, c)
	}
	if cov != nil {
		sinks = append(sinks, cov)
	}
	if t := obs.NewTee(sinks...); t != nil {
		return t
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "teapot-sim:", err)
	os.Exit(1)
}
