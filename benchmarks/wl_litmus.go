package main

import (
	"fmt"
	"path/filepath"
	"time"

	"teapot/internal/core"
	"teapot/internal/fuzz"
	"teapot/internal/litmus"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/oracle"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	tprt "teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// litmusWL runs the litmus corpus differentially across the checker, the
// simulator and the fuzzer. The corpus is fixed; the seed is the master
// seed of every sampled run.
type litmusWL struct {
	env   env
	tests []*litmus.Test
	last  []*litmus.Result // the latest corpus run, for the traced run's counts
	first map[string]litmusCounts
}

func (w *litmusWL) corpusDir() string { return filepath.Join(w.env.root, "testdata", "litmus") }

// A pass is this many runs of the corpus, about 0.3 s.
func (w *litmusWL) rounds() int {
	if w.env.small {
		return 1
	}
	return 3
}

func (w *litmusWL) setup(tr *tracer, c *checks) error {
	if w.first == nil {
		w.first = map[string]litmusCounts{}
	}
	sp := tr.begin("litmus.LoadDir")
	tests, err := litmus.LoadDir(w.corpusDir())
	tr.end(sp)
	if err != nil {
		return err
	}
	if w.env.small {
		tests = tests[:2]
	}
	w.tests = tests
	return nil
}

// runCorpus runs every test once in the given mode.
func (w *litmusWL) runCorpus(tr *tracer, mode string) ([]*litmus.Result, error) {
	out := make([]*litmus.Result, len(w.tests))
	for i, t := range w.tests {
		sp := tr.begin("litmus.Run:" + t.Name + ":" + mode)
		res, err := litmus.Run(t, litmus.Options{Mode: mode, Seed: w.env.seed})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

func (w *litmusWL) pass(tr *tracer, c *checks) {
	recorded := !w.env.small && w.env.seed == defaultSeed
	for r := 0; r < w.rounds(); r++ {
		results, err := w.runCorpus(tr, "all")
		c.ok(err == nil, "%v", err)
		if err != nil {
			return
		}
		w.last = results
		for _, res := range results {
			name := res.Test.Name
			c.ok(res.Failure() == nil, "litmus %s: %v", name, res.Failure())
			got := litmusCounts{MCStates: res.MCStates, MC: len(res.MC), Sim: len(res.Sim), Fuzz: len(res.Fuzz)}
			checkRecorded(c, name, got, expected.Litmus, recorded, w.first)
		}
	}
}

func (w *litmusWL) layers(tr *tracer, run tracedRun, m metrics) error {
	reps := 3
	if w.env.small {
		reps = 1
	}
	var protos []string
	for _, t := range w.tests {
		protos = append(protos, t.Proto)
	}
	if err := compileLayers(tr, bundledConfigs(protos...), reps, m); err != nil {
		return err
	}

	var parse []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("litmus.LoadDir")
		_, err := litmus.LoadDir(w.corpusDir())
		parse = append(parse, ms(tr.end(sp)))
		if err != nil {
			return err
		}
	}
	m.layer("litmus.parse_ms", parse...)
	for _, mode := range []string{"sim", "fuzz", "mc"} {
		sp := tr.begin("litmus.corpus:" + mode)
		_, err := w.runCorpus(tr, mode)
		m.layer("litmus."+mode+"_ms", ms(tr.end(sp)))
		if err != nil {
			return err
		}
	}
	var states, outcomes float64
	for _, res := range w.last {
		states += float64(res.MCStates)
		outcomes += float64(len(res.MC))
	}
	m.layer("litmus.mc_states", states)
	m.layer("litmus.outcomes", outcomes)

	if err := w.fuzzProbe(tr, m); err != nil {
		return err
	}
	if err := w.oracleProbe(tr, m); err != nil {
		return err
	}
	return injectorProbe(tr, w.env, m)
}

// fuzzProbe runs one clean campaign: chooser, recorder and oracle without
// the litmus scripts on top.
func (w *litmusWL) fuzzProbe(tr *tracer, m metrics) error {
	net, err := netmodel.Parse("drop=1")
	if err != nil {
		return err
	}
	schedules := 200
	if w.env.small {
		schedules = 5
	}
	sp := tr.begin("fuzz.Fuzz")
	defer tr.end(sp)
	f, err := fuzz.New(fuzz.Config{Proto: "stache-ft", Nodes: 3, Blocks: 2, Net: net, Schedules: schedules, Seed: w.env.seed})
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := f.Fuzz()
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if res.Failure != nil {
		return fmt.Errorf("fuzz stache-ft drop=1: schedule %d failed inside the verified envelope", res.Ran)
	}
	m.layer("fuzz.schedules_per_s", float64(res.Ran)/elapsed)
	m.layer("fuzz.steps_per_schedule", float64(res.Steps)/float64(res.Ran))
	return nil
}

// oracleProbe records the event stream of a gauss run once and feeds it to
// a fresh oracle: the judging cost per event without the simulator.
func (w *litmusWL) oracleProbe(tr *tracer, m metrics) error {
	e, _ := protocols.Lookup("stache")
	art, err := core.Compile(e.Config)
	if err != nil {
		return err
	}
	nodes, iters := 8, 8
	if w.env.small {
		iters = 1
	}
	g := sim.Gauss(sim.WorkloadSpec{Nodes: nodes, Iters: iters})
	col := obs.NewCollector(0)
	_, err = sim.Run(sim.Config{
		Nodes: nodes, Blocks: g.Blocks, Cost: tempest.DefaultCost,
		Tags: tempest.ResolveTags(art.Protocol),
		MakeEngine: func(mach tprt.Machine) tempest.Engine {
			return tempest.NewTeapotEngine(art.Protocol, nodes, g.Blocks, mach, stache.MustSupport(art.Protocol))
		},
		Program: g.Trace, Obs: col, ObsMemory: true,
	})
	if err != nil {
		return fmt.Errorf("record gauss events: %w", err)
	}
	if col.Dropped() > 0 {
		return fmt.Errorf("gauss event stream overflowed the collector by %d events", col.Dropped())
	}
	events := col.Events()
	rounds := 20
	if w.env.small {
		rounds = 1
	}
	sp := tr.begin("oracle.Emit")
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		judge := oracle.New(oracle.Config{Nodes: nodes, Blocks: g.Blocks, Inv: oracle.AllInvariants()})
		for _, ev := range events {
			judge.Emit(ev)
		}
		if v := judge.Finish(); v != nil {
			tr.end(sp)
			return fmt.Errorf("oracle rejects a clean gauss run: %v", v)
		}
	}
	elapsed := time.Since(t0)
	tr.end(sp)
	m.layer("oracle.ns_per_event", float64(elapsed)/float64(rounds*len(events)))
	return nil
}

// injectorProbe times the per-send fault decision.
func injectorProbe(tr *tracer, e env, m metrics) error {
	n := 2_000_000
	if e.small {
		n = 1000
	}
	// Budgets no run of n sends can spend, so every draw takes the full path.
	inj := netmodel.NewInjector(netmodel.Model{MaxDrops: n, MaxDups: n, Delay: 1}, e.seed)
	sp := tr.begin("netmodel.Next")
	t0 := time.Now()
	faults := 0
	for i := 0; i < n; i++ {
		if inj.Next() != netmodel.FaultNone {
			faults++
		}
	}
	elapsed := time.Since(t0)
	tr.end(sp)
	if faults == 0 || faults == n {
		return fmt.Errorf("injector decided %d faults in %d sends at the default rate", faults, n)
	}
	m.layer("netmodel.next_ns", float64(elapsed)/float64(n))
	return nil
}
