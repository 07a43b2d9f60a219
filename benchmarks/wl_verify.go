package main

import (
	"fmt"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

// verifyWL model-checks a fixed list of machines. Exhaustive checking has
// no random input, so the seed does not enter.
type verifyWL struct {
	env      env
	name     string
	symmetry mc.SymmetryMode
	workers  int // 0 = GOMAXPROCS, what a user of teapot-verify gets
	rows     []verifyRow
	last     []*mc.Result // the latest pass, for the traced run's counts
	first    map[string]mcCounts
}

type verifyRow struct {
	proto         string
	nodes, blocks int
	net           string
	verdict       string // "verified", or the kind of violation the checker must report
	cfg           mc.Config
}

func (r verifyRow) key(sym mc.SymmetryMode) string {
	net := r.net
	if net == "" {
		net = "none"
	}
	k := fmt.Sprintf("%s/%dn%db/%s", r.proto, r.nodes, r.blocks, net)
	if sym != mc.SymmetryOff {
		k += "/sym"
	}
	return k
}

func newVerifyWL(e env, name string) *verifyWL {
	w := &verifyWL{env: e, name: name, workers: 1, first: map[string]mcCounts{}}
	// The shape scripts/check.sh names as the verified envelope.
	large := []verifyRow{{proto: "stache-ft", nodes: 3, blocks: 1, net: "drop=1", verdict: "verified"}}
	if e.small {
		large[0].nodes = 2
	}
	switch name {
	case "verify_full":
		w.rows = large
	case "verify_sym":
		w.rows, w.symmetry = large, mc.SymmetryOn
	case "verify_small":
		w.workers = 0
		w.rows = []verifyRow{
			// Table 3's six machines.
			{proto: "stache", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			{proto: "stache", nodes: 2, blocks: 2, verdict: "verified"},
			{proto: "bufwrite", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			{proto: "lcm", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			{proto: "lcm-mcc", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			{proto: "update", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			// The fault sweep: stache-ft inside its envelope, one duplicate
			// beyond it, and base Stache losing a message it cannot recover.
			{proto: "stache-ft", nodes: 2, blocks: 1, verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "reorder=1", verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "drop=1", verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "dup=1", verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "drop=1,dup=1", verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "drop=2,dup=1", verdict: "verified"},
			{proto: "stache-ft", nodes: 2, blocks: 1, net: "dup=2", verdict: "invariant"},
			{proto: "stache", nodes: 2, blocks: 1, net: "drop=1", verdict: "deadlock"},
		}
	}
	return w
}

func (w *verifyWL) setup(tr *tracer, c *checks) error {
	for i := range w.rows {
		r := &w.rows[i]
		sp := tr.begin("protocols.Spec")
		spec, err := protocols.Spec(r.proto, r.nodes, r.blocks)
		tr.end(sp)
		if err != nil {
			return err
		}
		if spec.Net, err = netmodel.Parse(r.net); err != nil {
			return err
		}
		spec.Workers, spec.Symmetry = w.workers, w.symmetry
		r.cfg = spec.MCConfig()
	}
	return nil
}

// checkAll checks every row once, with change applied to each
// configuration first. flavor labels the spans ("" is what the pass
// measures).
func (w *verifyWL) checkAll(tr *tracer, flavor string, change func(*mc.Config)) ([]*mc.Result, error) {
	out := make([]*mc.Result, len(w.rows))
	for i, r := range w.rows {
		cfg := r.cfg
		if change != nil {
			change(&cfg)
		}
		name := "mc.Check:" + r.key(cfg.Symmetry)
		if flavor != "" {
			name += ":" + flavor
		}
		sp := tr.begin(name)
		res, err := mc.Check(cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", r.key(cfg.Symmetry), err)
		}
		out[i] = res
	}
	return out, nil
}

func (w *verifyWL) pass(tr *tracer, c *checks) {
	results, err := w.checkAll(tr, "", nil)
	c.ok(err == nil, "%v", err)
	if err != nil {
		return
	}
	w.last = results
	for i, r := range w.rows {
		res := results[i]
		verdict := "verified"
		if res.Violation != nil {
			verdict = res.Violation.Kind
		}
		key := r.key(w.symmetry)
		c.ok(verdict == r.verdict, "check %s: verdict %q, known answer %q", key, verdict, r.verdict)
		got := mcCounts{States: res.States, Transitions: res.Transitions, Depth: res.MaxDepth}
		checkRecorded(c, key, got, expected.Verify, !w.env.small, w.first)
	}
}

func (w *verifyWL) layers(tr *tracer, run tracedRun, m metrics) error {
	reps := 3
	if w.env.small {
		reps = 1
	}
	var protos []string
	for _, r := range w.rows {
		protos = append(protos, r.proto)
	}
	if err := compileLayers(tr, bundledConfigs(protos...), reps, m); err != nil {
		return err
	}

	var states, transitions, depth, frontier, decodes, group, visited float64
	for _, r := range w.last {
		states += float64(r.States)
		transitions += float64(r.Transitions)
		decodes += float64(r.Decodes)
		visited += float64(r.VisitedBytes)
		depth = max(depth, float64(r.MaxDepth))
		frontier = max(frontier, float64(r.PeakFrontier))
		group = max(group, float64(r.SymmetryGroup))
	}
	wall := median(walls(run.traced))
	usPerTransition := wall * 1e6 / transitions
	m.layer("mc.states", states)
	m.layer("mc.transitions", transitions)
	m.layer("mc.depth", depth)
	m.layer("mc.peak_frontier", frontier)
	m.layer("mc.decodes", decodes)
	m.layer("mc.sym_group", group)
	m.layer("mc.visited_bytes_per_state", visited/states)
	m.layer("mc.states_per_s", states/wall)
	m.layer("mc.us_per_transition", usPerTransition)
	m.layer("mc.allocs_per_transition", median(mallocs(run.traced))/transitions)

	// The same rows with one knob turned, to split the pass's cost.
	variant := func(flavor string, n int, change func(*mc.Config)) (samples []sample, last []*mc.Result, err error) {
		for i := 0; i < n; i++ {
			samples = append(samples, measure(func() { last, err = w.checkAll(tr, flavor, change) }))
			if err != nil {
				return nil, nil, err
			}
		}
		return samples, last, nil
	}
	switch w.name {
	case "verify_full":
		s, _, err := variant("workers2", 2, func(c *mc.Config) { c.Workers = 2 })
		if err != nil {
			return err
		}
		m.layer("mc.workers2_wall_s", walls(s)...)
		m.layer("mc.workers2_cpu_s", cpus(s)...)
	case "verify_sym":
		// Canonicalization is what symmetry adds to a transition.
		s, full, err := variant("nosym", 1, func(c *mc.Config) { c.Symmetry = mc.SymmetryOff })
		if err != nil {
			return err
		}
		var fullTransitions float64
		for _, r := range full {
			fullTransitions += float64(r.Transitions)
		}
		m.layer("mc.canon_us_per_transition", usPerTransition-median(walls(s))*1e6/fullTransitions)
	case "verify_small":
		// One worker pays no layer barrier; the ratio is what the barriers
		// cost in CPU on checks this small.
		s, _, err := variant("workers1", reps, func(c *mc.Config) { c.Workers = 1 })
		if err != nil {
			return err
		}
		m.layer("mc.small_w1_wall_s", walls(s)...)
		m.layer("mc.small_w1_cpu_s", cpus(s)...)
		m.layer("mc.barrier_cpu_ratio", median(cpus(run.traced))/median(cpus(s)))
	}
	return worldProbe(tr, w.env.small, m)
}

// worldProbe times the three operations the checker performs on every
// state (encode, deep copy, decode) over a fixed sample of reachable
// worlds: the ones along the counterexample that a second duplicate
// produces on stache-ft.
func worldProbe(tr *tracer, small bool, m metrics) error {
	spec, err := protocols.Spec("stache-ft", 2, 1)
	if err != nil {
		return err
	}
	if spec.Net, err = netmodel.Parse("dup=2"); err != nil {
		return err
	}
	spec.Workers = 1
	cfg := spec.MCConfig()
	res, err := mc.Check(cfg)
	if err != nil {
		return err
	}
	if res.Violation == nil {
		return fmt.Errorf("stache-ft under dup=2 verified: no counterexample to sample worlds from")
	}
	var worlds []*mc.World
	var keys []string
	err = mc.ReplaySteps(cfg, res.Violation.Steps, func(i int, st mc.Step, ev *mc.Event, w *mc.World, applyErr error) error {
		cl, err := w.Clone()
		if err != nil {
			return err
		}
		key, err := cl.Snapshot()
		if err != nil {
			return err
		}
		worlds, keys = append(worlds, cl), append(keys, key)
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay counterexample: %w", err)
	}

	rounds := 10000
	if small {
		rounds = 10
	}
	// perOp runs op on every sampled world, rounds times over.
	perOp := func(name string, op func(i int) error) (ns, allocs float64, err error) {
		sp := tr.begin(name)
		cost := measure(func() {
			for r := 0; r < rounds && err == nil; r++ {
				for i := 0; i < len(worlds) && err == nil; i++ {
					err = op(i)
				}
			}
		})
		tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		n := float64(rounds * len(worlds))
		return cost.wall * 1e9 / n, cost.mallocs / n, nil
	}
	ns, allocs, err := perOp("mc.World.Snapshot", func(i int) error { _, err := worlds[i].Snapshot(); return err })
	if err != nil {
		return err
	}
	m.layer("mc.snapshot_ns", ns)
	m.layer("mc.snapshot_allocs", allocs)
	ns, allocs, err = perOp("mc.World.Clone", func(i int) error { _, err := worlds[i].Clone(); return err })
	if err != nil {
		return err
	}
	m.layer("mc.clone_ns", ns)
	m.layer("mc.clone_allocs", allocs)
	ns, _, err = perOp("mc.Config.Restore", func(i int) error { _, err := cfg.Restore(keys[i]); return err })
	if err != nil {
		return err
	}
	m.layer("mc.restore_ns", ns)
	return nil
}
