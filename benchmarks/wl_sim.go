package main

import (
	"fmt"
	"math"

	"teapot/internal/core"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/lcm"
	"teapot/internal/protocols/stache"
	tprt "teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/sim"
	"teapot/internal/tempest"
	"teapot/internal/vm"
)

// simWL runs the seven Table 1/2 rows under the optimized compiled
// protocol. The machine size and iteration counts are fixed; the seed
// makes the row seeds, which shape the mp3d, adaptive and unstruct traces.
type simWL struct {
	env   env
	nodes int
	kits  []*simKit // Stache and LCM, optimized
	rows  []simRow
	// hw holds each row's statistics under the hand-written engine, run in
	// set-up: an implementation that shares no code with vm or runtime and
	// so is the reference for the access count.
	hw    []*tempest.Stats
	last  []*tempest.Stats // the latest pass, for the traced run's counts
	first map[string]simCounts
}

// simKit is what a row needs of its protocol.
type simKit struct {
	name    string // in the protocols registry
	cfg     core.Config
	proto   *tprt.Protocol
	tags    tempest.EventTags
	support tprt.Support
	newHW   func(blocks int, m tprt.Machine) tempest.Engine
}

type simRow struct {
	name string
	kit  *simKit
	w    *sim.Workload
}

type engineMaker func(r simRow, nodes int, m tprt.Machine) tempest.Engine

func (w *simWL) setup(tr *tracer, c *checks) error {
	w.nodes = 32
	iters := 64
	if w.env.small {
		w.nodes, iters = 4, 1
	}
	if w.first == nil {
		w.first = map[string]simCounts{}
	}
	nodes := w.nodes
	st, err := w.kit(tr, "stache", true)
	if err != nil {
		return err
	}
	lc, err := w.kit(tr, "lcm", true)
	if err != nil {
		return err
	}
	w.kits = []*simKit{st, lc}

	sp := tr.begin("sim.tracegen")
	spec := func(i uint64, iters int) sim.WorkloadSpec {
		return sim.WorkloadSpec{Nodes: nodes, Iters: iters, Seed: subSeed(w.env.seed, i)}
	}
	w.rows = []simRow{
		{"gauss", st, sim.Gauss(spec(0, iters))},
		{"appbt", st, sim.Appbt(spec(1, iters))},
		{"shallow", st, sim.Shallow(spec(2, iters))},
		{"mp3d", st, sim.Mp3d(spec(3, 4*iters))},
		{"adaptive", lc, sim.Adaptive(spec(4, iters))},
		{"stencil", lc, sim.Stencil(spec(5, iters))},
		{"unstruct", lc, sim.Unstruct(spec(6, iters))},
	}
	tr.end(sp)

	w.hw, err = w.runRows(tr, "hw", handWritten, nil)
	return err
}

// kit compiles one of the two protocols the rows run and builds its
// support module and hand-written counterpart.
func (w *simWL) kit(tr *tracer, name string, optimize bool) (*simKit, error) {
	e, ok := protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no bundled protocol %q", name)
	}
	e.Config.Optimize = optimize
	sp := tr.begin("core.Compile")
	art, err := core.Compile(e.Config)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	p, nodes := art.Protocol, w.nodes
	k := &simKit{name: name, cfg: e.Config, proto: p, tags: tempest.ResolveTags(p)}
	if name == "lcm" {
		k.support = lcm.MustSupport(p, nodes)
		k.newHW = func(blocks int, m tprt.Machine) tempest.Engine { return lcm.NewHW(p, nodes, blocks, m) }
	} else {
		k.support = stache.MustSupport(p)
		k.newHW = func(blocks int, m tprt.Machine) tempest.Engine { return stache.NewHW(p, nodes, blocks, m) }
	}
	return k, nil
}

func compiled(r simRow, nodes int, m tprt.Machine) tempest.Engine {
	return tempest.NewTeapotEngine(r.kit.proto, nodes, r.w.Blocks, m, r.kit.support)
}

func handWritten(r simRow, nodes int, m tprt.Machine) tempest.Engine {
	return r.kit.newHW(r.w.Blocks, m)
}

// runRows runs every row once. flavor labels the spans ("" is the
// compiled, optimized protocol the pass measures).
func (w *simWL) runRows(tr *tracer, flavor string, engine engineMaker, sink func() obs.Sink) ([]*tempest.Stats, error) {
	out := make([]*tempest.Stats, len(w.rows))
	for i, r := range w.rows {
		cfg := sim.Config{
			Nodes: w.nodes, Blocks: r.w.Blocks,
			Cost: tempest.DefaultCost, Tags: r.kit.tags,
			MakeEngine: func(m tprt.Machine) tempest.Engine { return engine(r, w.nodes, m) },
			Program:    r.w.Trace,
		}
		if sink != nil {
			cfg.Obs = sink()
		}
		name := "sim.Run:" + r.name
		if flavor != "" {
			name += ":" + flavor
		}
		sp := tr.begin(name)
		stats, err := sim.Run(cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("sim %s %s: %w", r.name, flavor, err)
		}
		out[i] = stats
	}
	return out, nil
}

func (w *simWL) pass(tr *tracer, c *checks) {
	stats, err := w.runRows(tr, "", compiled, nil)
	c.ok(err == nil, "%v", err)
	if err != nil {
		return
	}
	w.last = stats
	recorded := !w.env.small && w.env.seed == defaultSeed
	for i, r := range w.rows {
		s := stats[i]
		got := simCounts{Accesses: s.Accesses, Faults: s.Faults, Messages: s.Messages, Cycles: s.Cycles}
		checkRecorded(c, r.name, got, expected.Sim, recorded, w.first)
		// Faults and messages legitimately differ under the hand-written
		// engine on mp3d, whose races depend on timing; accesses may not.
		c.ok(s.Accesses == w.hw[i].Accesses, "sim %s: %d accesses, hand-written engine made %d", r.name, s.Accesses, w.hw[i].Accesses)
	}
}

func (w *simWL) layers(tr *tracer, run tracedRun, m metrics) error {
	reps := 3
	if w.env.small {
		reps = 1
	}
	if err := compileLayers(tr, []core.Config{w.kits[0].cfg, w.kits[1].cfg}, reps, m); err != nil {
		return err
	}

	var total tempest.CostCounters
	var accesses, faults, messages, cycles float64
	for _, s := range w.last {
		total = total.Add(s.Protocol)
		accesses += float64(s.Accesses)
		faults += float64(s.Faults)
		messages += float64(s.Messages)
		cycles += float64(s.Cycles)
	}
	wall := median(walls(run.traced))
	m.layer("vm.instrs", float64(total.Instrs))
	m.layer("vm.instrs_per_s", float64(total.Instrs)/wall)
	m.layer("runtime.handlers", float64(total.Handlers))
	m.layer("runtime.handlers_per_s", float64(total.Handlers)/wall)
	m.layer("runtime.heap_conts", float64(total.HeapConts))
	m.layer("runtime.static_conts", float64(total.StaticConts))
	m.layer("runtime.queue_records", float64(total.QueueRecords))
	m.layer("tempest.accesses", accesses)
	m.layer("tempest.faults", faults)
	m.layer("tempest.messages", messages)
	m.layer("tempest.sim_cycles", cycles)
	for _, r := range w.rows {
		m.layer("sim."+r.name+"_ms", tr.durationsMS("sim.Run:"+r.name)...)
	}
	m.layer("sim.tracegen_ms", tr.durationsMS("sim.tracegen")...)

	// The same rows under the hand-written engines, which bypass vm and
	// runtime: what is left is tempest and sim.
	timeRows := func(flavor string, engine engineMaker, sink func() obs.Sink) ([]float64, []*tempest.Stats, error) {
		var secs []float64
		var stats []*tempest.Stats
		for i := 0; i < reps; i++ {
			var err error
			s := measure(func() { stats, err = w.runRows(tr, flavor, engine, sink) })
			if err != nil {
				return nil, nil, err
			}
			secs = append(secs, s.wall)
		}
		return secs, stats, nil
	}
	hwSecs, hw, err := timeRows("hw", handWritten, nil)
	if err != nil {
		return err
	}
	m.layer("tempest.hw_wall_s", hwSecs...)
	m.layer("vm.wall_share", 1-median(hwSecs)/wall)

	// And under the unoptimized compilation: the paper's third column.
	unoptKits := map[*simKit]*simKit{}
	for _, kit := range w.kits {
		if unoptKits[kit], err = w.kit(tr, kit.name, false); err != nil {
			return err
		}
	}
	unoptimized := func(r simRow, nodes int, mach tprt.Machine) tempest.Engine {
		r.kit = unoptKits[r.kit]
		return compiled(r, nodes, mach)
	}
	unoptSecs, unopt, err := timeRows("unopt", unoptimized, nil)
	if err != nil {
		return err
	}
	m.layer("runtime.unopt_wall_s", unoptSecs...)
	var hwCycles, unoptCycles float64
	logOpt, logUnopt := 0.0, 0.0
	for i := range w.rows {
		hwCycles += float64(hw[i].Cycles)
		unoptCycles += float64(unopt[i].Cycles)
		logOpt += math.Log(float64(w.last[i].Cycles) / float64(hw[i].Cycles))
		logUnopt += math.Log(float64(unopt[i].Cycles) / float64(hw[i].Cycles))
	}
	n := float64(len(w.rows))
	m.layer("tempest.hw_sim_cycles", hwCycles)
	m.layer("tempest.unopt_sim_cycles", unoptCycles)
	m.layer("tempest.overhead_opt_pct", 100*(math.Exp(logOpt/n)-1))
	m.layer("tempest.overhead_unopt_pct", 100*(math.Exp(logUnopt/n)-1))

	// What observing costs: the pass again with a sink attached. The
	// collector keeps a 64k-event window; its default million-event ring
	// costs more in page faults than in emitting.
	base := median(walls(run.untraced))
	var collectors []*obs.Collector
	colSecs, _, err := timeRows("collector", compiled, func() obs.Sink {
		col := obs.NewCollector(1 << 16)
		collectors = append(collectors, col)
		return col
	})
	if err != nil {
		return err
	}
	var events float64
	for _, col := range collectors[len(collectors)-len(w.rows):] {
		events += float64(col.Total())
	}
	m.layer("obs.events", events)
	m.layer("obs.collector_overhead_pct", 100*(median(colSecs)/base-1))
	m.layer("obs.collector_ns_per_event", (median(colSecs)-base)*1e9/events)
	covSecs, _, err := timeRows("coverage", compiled, func() obs.Sink { return obs.NewCoverage() })
	if err != nil {
		return err
	}
	m.layer("obs.coverage_overhead_pct", 100*(median(covSecs)/base-1))

	return deliverProbe(tr, w.env.small, m)
}

// deliverProbe times Engine.Deliver of the cheapest real handler, a PING
// into a stable state, on a machine that does nothing. With no sink
// attached it must cost 2 allocations: observability is free when off.
func deliverProbe(tr *tracer, small bool, m metrics) error {
	art, err := core.Compile(core.Config{
		Name: "ping.tea", Source: pingProtocol, Optimize: true,
		HomeStart: "Idle", CacheStart: "Idle",
	})
	if err != nil {
		return fmt.Errorf("compile ping protocol: %w", err)
	}
	eng := tprt.NewEngine(art.Protocol, 1, 1, stubMachine{}, stubSupport{})
	ping := &tprt.Message{Tag: art.Protocol.MsgIndex("PING"), ID: 0, Src: 0}
	n := 200_000
	if small {
		n = 1000
	}
	sp := tr.begin("runtime.Deliver")
	cost := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			err = eng.Deliver(ping)
		}
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("deliver PING: %w", err)
	}
	m.layer("runtime.deliver_ns", cost.wall*1e9/float64(n))
	m.layer("runtime.deliver_allocs", math.Round(cost.mallocs/float64(n)))
	return nil
}

// stubMachine is a runtime.Machine on which every operation is a no-op.
type stubMachine struct{}

func (stubMachine) Send(from, dst int, m *tprt.Message)             {}
func (stubMachine) AccessChange(node, id int, mode sema.AccessMode) {}
func (stubMachine) RecvData(node, id int, mode sema.AccessMode)     {}
func (stubMachine) WakeUp(node, id int)                             {}
func (stubMachine) HomeNode(id int) int                             { return 0 }
func (stubMachine) Print(node int, s string)                        {}

type stubSupport struct{}

func (stubSupport) Call(ctx *tprt.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	return vm.Value{}, fmt.Errorf("no support routine %q", name)
}
func (stubSupport) ModConst(ctx *tprt.Ctx, name string) vm.Value { return vm.Value{} }

const pingProtocol = `
protocol Ping begin
  var pings : int;
  state Idle();
  message PING;
end;

state Ping.Idle() begin
  message PING (id : ID; var info : INFO; src : NODE)
  begin
    pings := pings + 1;
  end;
end;
`
