package cli

import (
	"fmt"
	"io"
	"os"
	"time"

	"teapot/internal/manifest"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// simWorkloads names the workloads `sim -workload` accepts, the Table 1
// ones (Stache) before the Table 2 ones (LCM).
var simWorkloads = []struct {
	name  string
	build func(sim.WorkloadSpec) *sim.Workload
	lcm   bool
}{
	{"gauss", sim.Gauss, false},
	{"appbt", sim.Appbt, false},
	{"shallow", sim.Shallow, false},
	{"mp3d", func(s sim.WorkloadSpec) *sim.Workload { s.Iters *= 4; return sim.Mp3d(s) }, false},
	{"prodcons", sim.ProdCons, false},
	{"adaptive", sim.Adaptive, true},
	{"stencil", sim.Stencil, true},
	{"unstruct", sim.Unstruct, true},
}

// cmdSim runs one benchmark workload on the simulated Tempest machine
// under a chosen protocol engine and prints the run statistics.
//
//	teapot sim -workload gauss -nodes 32 -engine opt
//	teapot sim -workload stencil -engine hw      # hand-written LCM baseline
//	teapot sim -workload gauss -nodes 8 -engine ft -net drop=4,dup=4 -seed 7
//
// A workload that runs to completion is the positive verdict; one the
// machine cannot finish (base Stache deadlocking under -net drop=1, say) is
// the negative one.
func cmdSim(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sim", stderr, "[flags]")
	var names []string
	for _, w := range simWorkloads {
		names = append(names, w.name)
	}
	var (
		workload  = choice(fs, "workload", "gauss", "access pattern to run", names...)
		nodes     = addNodes(fs, 32, 1)
		iters     = addIters(fs)
		engine    = choice(fs, "engine", "opt", "protocol engine — hw: hand-written; unopt, opt: compiled; ft: compiled fault-tolerant Stache, the one to pair with -net", "hw", "unopt", "opt", "ft")
		traceOut  = fs.String("trace", "", "write a Chrome trace_event JSON file of the run (open in about:tracing or ui.perfetto.dev)")
		showStats = fs.Bool("stats", false, "print the observability event summary after the run")
		seed      = addSeed(fs)
		report    = addReport(fs)
		net       = addNet(fs)
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}

	var w *sim.Workload
	protoName := "stache"
	for _, wl := range simWorkloads {
		if wl.name == *workload {
			w = wl.build(sim.WorkloadSpec{Nodes: *nodes, Iters: *iters, Seed: 99})
			if wl.lcm {
				protoName = "lcm"
			}
		}
	}
	if *engine == "ft" {
		if protoName == "lcm" {
			return fmt.Errorf("-engine ft is the fault-tolerant Stache; the LCM workloads have no fault-tolerant variant")
		}
		protoName = "stache-ft"
	}
	entry, _ := protocols.Lookup(protoName)
	entry.Config.Optimize = *engine != "unopt"
	run, err := entry.Spec(*nodes, w.Blocks)
	if err != nil {
		return err
	}
	run.Net, run.Seed, run.Program = net.Model, *seed, w.Trace
	simCfg := run.SimConfig()
	*seed = simCfg.Seed // -seed 0 derives a stable seed from the run shape
	if *engine == "hw" {
		simCfg.MakeEngine = func(m runtime.Machine) tempest.Engine {
			return entry.HandWritten(run.Proto, *nodes, w.Blocks, m)
		}
	}

	var col *obs.Collector
	var cov *obs.Coverage
	var sinks []obs.Sink
	if *traceOut != "" || *showStats || *report != "" {
		if *engine == "hw" {
			return fmt.Errorf("-trace/-stats/-report need a Teapot engine (hand-written baselines emit no events); use -engine opt or unopt")
		}
		col = obs.NewCollector(0)
		sinks = append(sinks, col)
	}
	if *report != "" {
		cov = obs.NewCoverage()
		sinks = append(sinks, cov)
	}
	if len(sinks) > 0 {
		simCfg.Obs = obs.NewTee(sinks...)
	}

	fmt.Fprintf(stdout, "workload %s (%d nodes, %d blocks, engine %s)\n", w.Name, *nodes, w.Blocks, *engine)
	start := time.Now()
	stats, err := sim.Run(simCfg)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(stdout, "FAILED: %v\n", err)
		return errNegative
	}

	if *report != "" {
		man := newManifest("teapot-sim", protoName, *nodes, w.Blocks, net.Model.String(), *seed, cov, run.Proto)
		man.Obs = &manifest.ObsSummary{
			Events: col.Total(), ByKind: col.KindCounts(),
			MaxQueueDepth: col.MaxQueueDepth(),
		}
		man.Sim = &manifest.SimStats{
			Cycles: stats.Cycles, Events: col.Total(),
			ElapsedSec:   elapsed.Seconds(),
			EventsPerSec: perSec(float64(col.Total()), elapsed),
			Accesses:     stats.Accesses, Faults: stats.Faults,
			Messages: stats.Messages, Drops: stats.Drops,
			Dups: stats.Dups, Delays: stats.Delays, Timeouts: stats.Timeouts,
		}
		if err := manifest.Write(*report, man); err != nil {
			return err
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = obs.WriteChromeTrace(f, col.Events(), runtime.ObsNames(run.Proto))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "teapot sim: wrote %d events to %s\n", len(col.Events()), *traceOut)
	}
	fmt.Fprintf(stdout, "  execution time: %d cycles\n", stats.Cycles)
	fmt.Fprintf(stdout, "  accesses: %d   faults: %d   messages: %d\n", stats.Accesses, stats.Faults, stats.Messages)
	if net.Model.Active() {
		fmt.Fprintf(stdout, "  network (%s, seed %d): %d dropped, %d duplicated, %d delayed; %d timeouts fired\n",
			net.Model, *seed, stats.Drops, stats.Dups, stats.Delays, stats.Timeouts)
	}
	fmt.Fprintf(stdout, "  fault time: %d cycles (%.0f%% of node-cycles)\n", stats.FaultTime,
		100*float64(stats.FaultTime)/float64(stats.Cycles*int64(*nodes)))
	fmt.Fprintf(stdout, "  protocol: %d handlers, %d statements, %d cycles\n",
		stats.Protocol.Handlers, stats.Protocol.Instrs, stats.ProtoTime)
	fmt.Fprintf(stdout, "  continuations: %d heap, %d static; queue records: %d\n",
		stats.Protocol.HeapConts, stats.Protocol.StaticConts, stats.Protocol.QueueRecords)
	if *showStats {
		fmt.Fprint(stdout, col.Summary(runtime.ObsNames(run.Proto)))
	}
	// What the run cost on this machine, sinks included when one is attached.
	fmt.Fprintf(stdout, "  wall: %.1f ms (%.2fM handlers/s, %.2fM messages/s)\n", 1e3*elapsed.Seconds(),
		perSec(float64(stats.Protocol.Handlers), elapsed)/1e6, perSec(float64(stats.Messages), elapsed)/1e6)
	return nil
}
