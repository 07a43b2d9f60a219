package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatchesTables holds the
// two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old median by which an end-to-end metric
	// may worsen before -compare calls it a regression. Per-layer metrics
	// have none.
	Bound float64
	// Floor is an absolute difference below which a change never counts
	// (set-up times here are a few hundredths of a second).
	Floor float64
	// Exact marks a deterministic count: -compare requires it to repeat
	// exactly.
	Exact bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.02},
}

func timed(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func rate(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
}

// perLayer is every per-layer metric, grouped by the workloads whose traced
// run measures it. A traced run prints all of them; a layer the workload
// does not pass through reads 0.
var perLayer = []metricDef{
	// Compiler: the sources the workload compiles, stage by stage (every
	// workload compiles in set-up; compile_all compiles all twelve).
	timed("lexer.ms", "ms"), count("lexer.tokens"),
	timed("parser.ms", "ms"),
	timed("sema.ms", "ms"),
	timed("lower.ms", "ms"), count("lower.ir_instrs"),
	timed("liveness.ms", "ms"),
	timed("cont.ms", "ms"), count("cont.ir_instrs"), count("cont.sites"),
	{Name: "cont.static_sites", Unit: "count", Better: "higher", Exact: true},
	count("cont.heap_sites"),
	timed("codegen.ms", "ms"), count("codegen.lines"),
	timed("murphi.ms", "ms"), count("murphi.lines"),
	timed("analysis.ms", "ms"), timed("analysis.symmetry_ms", "ms"),
	timed("core.compile_ms", "ms"), timed("core.compile_allocs", "count"),

	// Execution: sim_tables.
	count("vm.instrs"), rate("vm.instrs_per_s", "1/s"), timed("vm.wall_share", "ratio"),
	count("runtime.handlers"), rate("runtime.handlers_per_s", "1/s"),
	count("runtime.heap_conts"),
	{Name: "runtime.static_conts", Unit: "count", Better: "higher", Exact: true},
	count("runtime.queue_records"),
	timed("runtime.deliver_ns", "ns"), count("runtime.deliver_allocs"),
	timed("runtime.unopt_wall_s", "s"),
	count("tempest.accesses"), count("tempest.faults"), count("tempest.messages"),
	{Name: "tempest.sim_cycles", Unit: "cycles", Better: "lower", Exact: true},
	timed("tempest.hw_wall_s", "s"),
	{Name: "tempest.hw_sim_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "tempest.unopt_sim_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "tempest.overhead_opt_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "tempest.overhead_unopt_pct", Unit: "%", Better: "lower", Exact: true},
	timed("sim.gauss_ms", "ms"), timed("sim.appbt_ms", "ms"), timed("sim.shallow_ms", "ms"),
	timed("sim.mp3d_ms", "ms"), timed("sim.adaptive_ms", "ms"), timed("sim.stencil_ms", "ms"),
	timed("sim.unstruct_ms", "ms"), timed("sim.tracegen_ms", "ms"),
	count("obs.events"), timed("obs.collector_overhead_pct", "%"),
	timed("obs.coverage_overhead_pct", "%"), timed("obs.collector_ns_per_event", "ns"),

	// Checker: the three verify workloads.
	count("mc.states"), count("mc.transitions"), count("mc.depth"),
	count("mc.peak_frontier"), count("mc.decodes"),
	{Name: "mc.sym_group", Unit: "count", Better: "higher", Exact: true},
	{Name: "mc.visited_bytes_per_state", Unit: "B", Better: "lower", Exact: true},
	rate("mc.states_per_s", "1/s"), timed("mc.us_per_transition", "us"),
	timed("mc.allocs_per_transition", "count"), timed("mc.canon_us_per_transition", "us"),
	timed("mc.snapshot_ns", "ns"), timed("mc.snapshot_allocs", "count"),
	timed("mc.clone_ns", "ns"), timed("mc.clone_allocs", "count"),
	timed("mc.restore_ns", "ns"),
	timed("mc.workers2_wall_s", "s"), timed("mc.workers2_cpu_s", "s"),
	timed("mc.small_w1_wall_s", "s"), timed("mc.small_w1_cpu_s", "s"),
	timed("mc.barrier_cpu_ratio", "ratio"),

	// Litmus plane: litmus_corpus.
	timed("litmus.parse_ms", "ms"), timed("litmus.sim_ms", "ms"),
	timed("litmus.fuzz_ms", "ms"), timed("litmus.mc_ms", "ms"),
	count("litmus.mc_states"),
	{Name: "litmus.outcomes", Unit: "count", Better: "higher", Exact: true},
	rate("fuzz.schedules_per_s", "1/s"), timed("fuzz.steps_per_schedule", "count"),
	timed("oracle.ns_per_event", "ns"), timed("netmodel.next_ns", "ns"),

	// Traced pass wall over the untraced median, every workload.
	timed("bench.trace_overhead_pct", "%"),
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported metric, with the median, both quartiles and the
// count of the samples it was made from beside it; with at most a few dozen
// samples per run no tail percentile has ten samples beyond it, so none is
// reported. Value is the median, except for the end-to-end times, where it
// is fastestQuarter.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Floor  float64 `json:"floor,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

// metrics maps metric name to value for one run.
type metrics map[string]value

// put records name as the median of samples. The name must be declared in
// defs: a typo is a bug in the benchmark, not a measurement.
func (m metrics) put(defs []metricDef, name string, samples ...float64) {
	m.putValue(defs, name, median(samples), samples...)
}

// putValue records v for name, with the quartiles of samples beside it.
func (m metrics) putValue(defs []metricDef, name string, v float64, samples ...float64) {
	d, ok := findDef(defs, name)
	if !ok {
		panic("benchmarks: undeclared metric " + name)
	}
	for _, s := range append(samples, v) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			panic(fmt.Sprintf("benchmarks: metric %s is not finite: %v %v", name, v, samples))
		}
	}
	med, q1, q3 := quartiles(samples)
	m[name] = value{
		Value: v, Unit: d.Unit, Median: med, Q1: q1, Q3: q3, N: len(samples),
		Better: d.Better, Bound: d.Bound, Floor: d.Floor, Exact: d.Exact,
	}
}

// layer records a per-layer metric.
func (m metrics) layer(name string, samples ...float64) { m.put(perLayer, name, samples...) }

// fillZero gives every declared metric the run did not measure the value
// 0: the layer was not on this workload's path.
func (m metrics) fillZero(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m.put(defs, d.Name, 0)
		}
	}
}

// quartiles returns the median and the first and third quartiles of xs by
// the method of Python's statistics.quantiles(xs, n=4), which the driver
// uses on its own samples. Fewer than two samples have no spread.
func quartiles(xs []float64) (med, q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4 // outside 0..4 after a clamp: extrapolates, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return med, at(1), at(3)
}

func median(xs []float64) float64 {
	m, _, _ := quartiles(xs)
	return m
}

// fastestQuarter is the mean of the fastest quarter of samples (of the one
// fastest, with fewer than eight). The machines this runs on are shared:
// for seconds at a time the host gives the process less than its
// processors, which only ever adds to a pass. Measured over ten runs of
// each workload, the median pass moved by up to 35 % of itself between
// runs, this by a third of that, while in quiet spells the two were
// equally steady.
func fastestQuarter(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := max(len(s)/4, 1)
	sum := 0.0
	for _, x := range s[:n] {
		sum += x
	}
	return sum / float64(n)
}

// spread is the distance between the quartiles as a share of the median.
func (v value) spread() float64 {
	if v.Median == 0 {
		return 0
	}
	return math.Abs(v.Q3-v.Q1) / math.Abs(v.Median)
}
