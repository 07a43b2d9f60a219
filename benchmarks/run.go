package main

import (
	"fmt"
	"time"
)

// env is what a workload is built from.
type env struct {
	seed uint64
	root string // repository root; the litmus corpus is read from under it
	// small selects reduced shapes (2-node machines, one round, Iters 1)
	// so the package's tests can run every workload in seconds. Reported
	// numbers always come from the full shapes.
	small bool
}

// defaultSeed is the seed expected.json was recorded at. With another seed
// the seeded workloads check "identical on every pass" instead.
const defaultSeed = 1

// checks counts correctness checks: every verdict, count and output a pass
// produces is compared with its known answer.
type checks struct {
	ops, failed int
	msgs        []string // the first few distinct failures
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.ops++
	if cond {
		return
	}
	c.failed++
	msg := fmt.Sprintf(format, args...)
	for _, m := range c.msgs {
		if m == msg {
			return // the same failure on a later pass
		}
	}
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, msg)
	}
}

// workload is one set of inputs. Load is closed-loop from the calling
// goroutine; only the checker starts goroutines of its own, and only where
// the workload says so.
type workload interface {
	// setup does what a user pays before the first result: compile the
	// protocols, generate traces, load the corpus. It starts from scratch
	// on every call. An error means the benchmark itself is broken.
	setup(tr *tracer, c *checks) error
	// pass does the measured work once and checks every output.
	pass(tr *tracer, c *checks)
	// layers fills in the per-layer metrics of a traced run: counts from
	// the last pass, times from the spans, and the probes of the layers
	// this workload passes through.
	layers(tr *tracer, run tracedRun, m metrics) error
}

// tracedRun is what the pass loop of a traced run measured.
type tracedRun struct {
	untraced, traced []sample
}

type workloadDef struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	make func(env) workload
}

var workloadDefs = []workloadDef{
	{"compile_all", "all 12 bundled .tea sources through the compiler and its back ends: the only workload in which lexer to cont, codegen, murphi and analysis do the work",
		func(e env) workload { return &compileWL{env: e} }},
	{"sim_tables", "the seven Table 1/2 rows at 32 nodes under the compiled protocol: vm, runtime and tempest do nearly all the work, the checker none",
		func(e env) workload { return &simWL{env: e} }},
	{"verify_full", "mc.Check on stache-ft 3 nodes/1 block drop=1, symmetry off, 1 worker, 170,738 states: the checker's per-state path with neither canonicalization nor barriers",
		func(e env) workload { return newVerifyWL(e, "verify_full") }},
	{"verify_sym", "the verify_full shape with symmetry reduction on, 85,409 states: canonicalization dominates, so a canonicalization gain shows here and not on verify_full",
		func(e env) workload { return newVerifyWL(e, "verify_sym") }},
	{"verify_small", "Table 3's six machines plus eight fault-sweep rows of 14 to 8,021 states at GOMAXPROCS workers: fixed cost per check and layer barriers dominate",
		func(e env) workload { return newVerifyWL(e, "verify_small") }},
	{"litmus_corpus", "the 11-test litmus corpus in mode all: the only workload through the .lit parser, fuzz, oracle, the fault injector and the mc client plane",
		func(e env) workload { return &litmusWL{env: e} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// result is one run of one workload, as written to the -out file.
type result struct {
	Workload    string      `json:"workload"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`
	Passes      int         `json:"passes"`
	Ops         int         `json:"ops"`
	OpsFailed   int         `json:"ops_failed"`
	Failures    []string    `json:"failures,omitempty"`
	Metrics     metrics     `json:"metrics"`
	// LayerSelfMS and Spans are present on traced runs only.
	LayerSelfMS []layerTime `json:"layer_self_ms,omitempty"`
	Spans       []span      `json:"spans,omitempty"`
}

// setupSlice is how long set-up is repeated for before each timed pass (it
// always runs once). A set-up of a millisecond or two needs hundreds of
// samples for a steady figure; one of a third of a second runs once a pass.
const setupSlice = 50 * time.Millisecond

// runUntraced measures the end-to-end metrics. After one set-up and one
// warm-up pass, so that caches are full and the heap has its working size,
// it alternates set-up and a timed pass until seconds have gone by: set-up
// is then sampled over the same stretch of time as the pass, not once at a
// moment the host may have been busy.
func runUntraced(def workloadDef, e env, seconds float64, fp fingerprint) (*result, error) {
	w := def.make(e)
	var c checks
	if err := w.setup(nil, &c); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	w.pass(nil, &c)

	var setups, peaks []float64
	var samples []sample
	for start := time.Now(); len(samples) == 0 || time.Since(start).Seconds() < seconds; {
		for slice := time.Now(); ; {
			t0 := time.Now()
			if err := w.setup(nil, &c); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if time.Since(slice) >= setupSlice {
				break
			}
		}
		resetPeakRSS()
		samples = append(samples, measure(func() { w.pass(nil, &c) }))
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
	}

	m := metrics{}
	m.putValue(endToEnd, "setup_s", fastestQuarter(setups), setups...)
	m.putValue(endToEnd, "wall_s", fastestQuarter(walls(samples)), walls(samples)...)
	m.putValue(endToEnd, "cpu_s", fastestQuarter(cpus(samples)), cpus(samples)...)
	m.put(endToEnd, "peak_rss_mb", peaks...)
	m.put(endToEnd, "allocs_per_pass", mallocs(samples)...)
	m.put(endToEnd, "alloc_mb_per_pass", column(samples, func(s sample) float64 { return s.bytes / (1 << 20) })...)
	return &result{
		Workload: def.name, Fingerprint: fp, Passes: len(samples),
		Ops: c.ops, OpsFailed: c.failed, Failures: c.msgs, Metrics: m,
	}, nil
}

// runTraced measures the per-layer metrics. Untraced and traced passes
// alternate for half of seconds, so that their ratio is the tracing
// overhead under the same machine state; the layer probes take the rest.
// End-to-end metrics never come from this run.
func runTraced(def workloadDef, e env, seconds float64, fp fingerprint) (*result, error) {
	w := def.make(e)
	var c checks
	tr := newTracer(def.name)
	root := tr.begin("workload:" + def.name)

	sp := tr.begin("setup")
	err := w.setup(tr, &c)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	w.pass(nil, &c)

	var run tracedRun
	for start := time.Now(); len(run.traced) == 0 || time.Since(start).Seconds() < seconds/2; {
		run.untraced = append(run.untraced, measure(func() { w.pass(nil, &c) }))
		run.traced = append(run.traced, measure(func() {
			sp := tr.begin("pass")
			w.pass(tr, &c)
			tr.end(sp)
		}))
	}

	m := metrics{}
	sp = tr.begin("probes")
	err = w.layers(tr, run, m)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", def.name, err)
	}
	tr.end(root)
	m.layer("bench.trace_overhead_pct", 100*(median(walls(run.traced))/median(walls(run.untraced))-1))
	m.fillZero(perLayer)
	return &result{
		Workload: def.name, Traced: true, Fingerprint: fp, Passes: len(run.traced),
		Ops: c.ops, OpsFailed: c.failed, Failures: c.msgs, Metrics: m,
		LayerSelfMS: layerSelfMS(tr.spans), Spans: tr.spans,
	}, nil
}

// subSeed derives the i-th input seed from the run's seed (splitmix64, the
// generator the workload builders themselves use).
func subSeed(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
