package litmus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"teapot/internal/core"
	"teapot/internal/fuzz"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/oracle"
	"teapot/internal/protocols"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// DefaultBudget is the model-checker state budget per test when the caller
// does not set one. The scripted corpus shapes are small (hundreds to tens
// of thousands of states); hitting the budget is reported as an honest
// "state-limit" failure, never silently truncated coverage.
const DefaultBudget = 300_000

// simRuns is the number of seeded simulator runs per test: seed variant 0
// is the plain run, the rest phase-shift the scripts with seeded compute
// jitter so the stochastic scheduler samples different interleavings.
const simRuns = 12

// Options shapes a harness run.
type Options struct {
	Mode    string // "sim" | "fuzz" | "mc" | "all" ("" = all)
	Budget  int    // mc state budget per test (0 = DefaultBudget)
	Seed    uint64 // master seed; 0 derives one from the test's run shape
	Workers int    // mc worker goroutines (0 = GOMAXPROCS)
	// Coverage, when non-nil, accumulates dispatch/transition/fault
	// coverage across every run of every substrate (manifest reporting).
	Coverage *obs.Coverage
}

func (o *Options) normalize() {
	if o.Mode == "" {
		o.Mode = "all"
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
}

func (o *Options) wants(mode string) bool { return o.Mode == "all" || o.Mode == mode }

// schedules is the fuzz campaign length, scaled to the state budget.
func (o *Options) schedules() int {
	n := o.Budget / 2000
	if n < 24 {
		n = 24
	}
	if n > 400 {
		n = 400
	}
	return n
}

// Failure is one substrate's verdict on a test.
type Failure struct {
	Mode  string // "sim" | "fuzz" | "mc"
	Class string // "violation" | "error" | "forbidden:<name>" | "state-limit"
	Msg   string

	Violation *oracle.Violation // sim/fuzz oracle verdict, when one fired
	// Schedule is the fuzz mode's shrunk reproducer (Litmus names the test;
	// replay it with teapot litmus -replay).
	Schedule        *fuzz.Schedule
	ShrunkDecisions int
	ShrinkTries     int
	// MCViolation is the checker's counterexample: for a forbidden final
	// state, the shortest trace into it (kind "litmus"), replayable with
	// mc.ReplaySteps.
	MCViolation *mc.Violation
}

func (f *Failure) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Mode, f.Class, f.Msg)
}

// Result is one test's differential run.
type Result struct {
	Test     *Test
	Modes    []string // substrates that ran, in execution order
	MCStates int      // states the reference exploration visited

	// Outcome sets per substrate, keyed by canonical outcome key (nil when
	// the substrate did not run).
	MC, Sim, Fuzz map[string]Outcome

	// Failures collects every substrate's failure (usually zero or one;
	// a seeded-bug test fails under each substrate that catches it).
	Failures []*Failure
}

// Failure returns the primary (first) failure, nil when the test passed.
func (r *Result) Failure() *Failure {
	if len(r.Failures) == 0 {
		return nil
	}
	return r.Failures[0]
}

// MCOnly lists checker-reachable outcomes no sampling substrate saw — the
// expected coverage gap of sampling (informational; nil when no sampling
// substrate ran, since then the whole set would be a trivial "gap").
func (r *Result) MCOnly() []string {
	if r.MC == nil || (r.Sim == nil && r.Fuzz == nil) {
		return nil
	}
	var out []string
	for k := range r.MC {
		if _, ok := r.Sim[k]; ok {
			continue
		}
		if _, ok := r.Fuzz[k]; ok {
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExtraVsMC lists outcomes the given set reached that the checker did not —
// with an exhaustive (non-budget-limited) mc run this is a harness bug.
func (r *Result) ExtraVsMC(set map[string]Outcome) []string {
	if r.MC == nil {
		return nil
	}
	var out []string
	for k := range set {
		if _, ok := r.MC[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// runner holds the per-test machinery shared by the substrates. It is not
// safe for concurrent use.
type runner struct {
	t    *Test
	opt  Options
	spec core.RunSpec
	prof protocols.Profile // oracle profile (sim/fuzz modes)
	seed uint64            // master seed
	// script is the test lowered once: the ops the checker's client plane
	// runs as they are, and the simulator runs behind jitter yields.
	script [][]tempest.Op
	// plain is script as a trace; jittered is the trace of the jittered
	// script, its ops rewritten in place for every run (see program).
	plain, jittered *sim.Trace
	// judge runs every sim and fuzz run, built on first use.
	judge *fuzz.Judge
	// key is the buffer record builds outcome keys in.
	key []byte
}

// Run executes one test under the requested substrates and diffs the
// outcome sets. A non-nil error is a harness problem (unparseable net
// model, unknown protocol); test verdicts land in Result.Failures.
func Run(t *Test, opt Options) (*Result, error) {
	opt.normalize()
	r, err := newRunner(t, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Test: t}

	// The checker runs first: it is the outcome reference the sampling
	// substrates are diffed against, and the substrate that turns a
	// forbidden final state into a shortest-trace counterexample.
	if opt.wants("mc") {
		res.Modes = append(res.Modes, "mc")
		if err := r.runMC(res); err != nil {
			return nil, err
		}
	}
	if opt.wants("sim") {
		res.Modes = append(res.Modes, "sim")
		r.runSim(res)
	}
	if opt.wants("fuzz") {
		res.Modes = append(res.Modes, "fuzz")
		r.runFuzz(res)
	}

	// Differential check: everything sampling reached, the exhaustive
	// reference must have reached too. An exploration that stopped early —
	// state budget, deadlock, protocol error — has only a partial outcome
	// set and cannot make that promise, so the check skips it. (A forbidden
	// final state does not stop pass 1; its set is complete.)
	if res.MC != nil && !r.mcTruncated(res) {
		for _, m := range []struct {
			name string
			set  map[string]Outcome
		}{{"sim", res.Sim}, {"fuzz", res.Fuzz}} {
			if extra := res.ExtraVsMC(m.set); len(extra) > 0 {
				res.Failures = append(res.Failures, &Failure{
					Mode:  m.name,
					Class: "error",
					Msg: fmt.Sprintf("outcome diff: %s reached %d outcome(s) the exhaustive checker never did: %s",
						m.name, len(extra), strings.Join(extra, "; ")),
				})
			}
		}
	}
	return res, nil
}

// mcTruncated reports whether the exploration stopped before enumerating
// every reachable outcome.
func (r *runner) mcTruncated(res *Result) bool {
	for _, f := range res.Failures {
		if f.Mode == "mc" && (f.Class == "state-limit" || f.Class == "error") {
			return true
		}
	}
	return false
}

func newRunner(t *Test, opt Options) (*runner, error) {
	spec, err := protocols.Spec(t.Proto, t.Nodes, len(t.Blocks))
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	net, err := netmodel.Parse(t.Net)
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	spec.Net = net
	spec.Workers = opt.Workers
	spec.Seed = opt.Seed
	r := &runner{t: t, opt: opt, spec: spec, seed: spec.EffectiveSeed(),
		script: make([][]tempest.Op, t.Nodes)}
	for n, prog := range t.Progs {
		for _, op := range prog {
			r.script[n] = append(r.script[n], tempest.Op{
				Kind: opKinds[op.Kind], Addr: op.Block, Val: op.Val, Expect: op.Expect})
		}
	}
	if opt.wants("sim") || opt.wants("fuzz") {
		prof, err := protocols.OracleProfile(t.Proto)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
		}
		r.prof = prof
	}
	return r, nil
}

// ---- simulator / fuzzer substrate ----

// runReport is one simulated run's verdict.
type runReport struct {
	viol      *oracle.Violation
	err       error
	outcome   Outcome // the run's outcome, when it ran clean
	forbidden string  // forbid condition the outcome satisfies
}

// class buckets the report the way schedule shrinking must preserve it.
func (rr runReport) class() string {
	switch {
	case rr.viol != nil:
		return "violation"
	case rr.err != nil:
		return "error"
	case rr.forbidden != "":
		return "forbidden:" + rr.forbidden
	}
	return ""
}

func (rr runReport) describe() string {
	switch {
	case rr.viol != nil:
		return rr.viol.Error()
	case rr.err != nil:
		return rr.err.Error()
	case rr.forbidden != "":
		return "forbidden final state " + rr.forbidden
	}
	return "clean"
}

// opKinds maps the script operations onto the processor's.
var opKinds = [...]tempest.OpKind{Get: tempest.OpRead, Put: tempest.OpWrite, CAS: tempest.OpCAS}

// execute runs the test's script once on the tempest machine: under a
// chooser (fuzz substrate, which never draws from seed) or under stochastic
// injection seeded with seed (sim substrate, chooser nil), with jitterSeed
// phase-shifting the scripts.
func (r *runner) execute(ch tempest.Chooser, seed, jitterSeed uint64) runReport {
	if r.judge == nil {
		r.judge = fuzz.NewJudge(r.spec, oracle.Config{
			Inv: r.prof.Inv, InitMem: r.t.Init, TrackReads: true,
		}, r.opt.Coverage)
	}
	checker, _, err := r.judge.Run(r.program(jitterSeed), seed, ch, nil)
	rep := runReport{viol: checker.Finish(), err: err}
	if rep.viol != nil || rep.err != nil {
		return rep
	}
	rep.outcome, rep.err = r.outcomeFromOracle(checker)
	if rep.err == nil {
		rep.forbidden = r.t.ForbiddenBy(rep.outcome)
	}
	return rep
}

// program is the script as a tempest program. jitterSeed 0 is the script
// as it is; otherwise each op gets a seeded yield prefix of up to six
// network latencies. Yields (not computes: those never release the event
// loop, so in-flight deliveries could not overtake a script) desynchronize
// the per-node scripts so stochastic and recorded schedules sample
// different interleavings of the same test. The program is valid until the
// next call.
func (r *runner) program(jitterSeed uint64) tempest.Program {
	if jitterSeed == 0 {
		if r.plain == nil {
			r.plain = sim.NewTrace(r.script)
		}
		return r.plain.NewCursor()
	}
	if r.jittered == nil {
		ops := make([][]tempest.Op, len(r.script))
		for n, prog := range r.script {
			ops[n] = make([]tempest.Op, 2*len(prog))
		}
		r.jittered = sim.NewTrace(ops)
	}
	for n, prog := range r.script {
		for i, op := range prog {
			r.jittered.Ops[n][2*i] = tempest.Op{Kind: tempest.OpYield, Cycles: jitterCycles(jitterSeed, n, i)}
			r.jittered.Ops[n][2*i+1] = op
		}
	}
	return r.jittered.NewCursor()
}

// jitterCycles derives op i of node n's compute prefix from the seed: a
// quarter zero, the rest up to six network latencies
// (tempest.DefaultCost.NetLatency) — wide enough to push an op past a
// remote fault's full round trip, so sampling reaches interleavings where
// either script runs ahead of the other.
func jitterCycles(seed uint64, n, i int) int64 {
	r := netmodel.Rand(seed ^ uint64(n)*0xbf58476d1ce4e5b9 ^ uint64(i)*0x94d049bb133111eb)
	x := r.Next()
	if x&3 == 0 {
		return 0
	}
	return int64((x >> 2) % uint64(6*tempest.DefaultCost.NetLatency+1))
}

// newOutcome returns an empty outcome with room for t's registers and
// blocks, both in one allocation.
func newOutcome(t *Test) Outcome {
	nr := len(t.Regs())
	vals := make([]int64, nr+len(t.Blocks))
	return Outcome{Regs: vals[:0:nr], Mem: vals[nr:nr]}
}

// outcomeFromOracle reads the register file and final block values back
// from the oracle's tracked reads — the simulator substrates' outcome.
func (r *runner) outcomeFromOracle(c *oracle.Checker) (Outcome, error) {
	o := newOutcome(r.t)
	for n := range r.t.Progs {
		reads := c.Reads(n)
		if len(reads) != r.t.obsCount(n) {
			return Outcome{}, fmt.Errorf("litmus %s: node %d completed %d observation(s), script has %d",
				r.t.Name, n, len(reads), r.t.obsCount(n))
		}
		for _, v := range reads {
			o.Regs = append(o.Regs, tempest.ValueOf(v))
		}
	}
	for b := range r.t.Blocks {
		o.Mem = append(o.Mem, tempest.ValueOf(c.FinalValue(b)))
	}
	return o, nil
}

// record adds o to set under its key. The key is built in the runner's
// buffer and becomes a string only when set has not seen it.
func (r *runner) record(set map[string]Outcome, o Outcome) {
	r.key = r.t.AppendKey(r.key[:0], o)
	if _, ok := set[string(r.key)]; !ok {
		set[string(r.key)] = o
	}
}

// runSim samples simRuns seeded stochastic runs.
func (r *runner) runSim(res *Result) {
	res.Sim = map[string]Outcome{}
	for k := 0; k < simRuns; k++ {
		seed := netmodel.Rand(r.seed).Derive(uint64(0x510 + k))
		var jitter uint64
		if k > 0 {
			jitter = netmodel.Rand(seed).Derive(1)
		}
		rep := r.execute(nil, seed, jitter)
		if class := rep.class(); class != "" {
			res.Failures = append(res.Failures, &Failure{
				Mode: "sim", Class: class,
				Msg:       fmt.Sprintf("sim run %d (seed %d): %s", k, seed, rep.describe()),
				Violation: rep.viol,
			})
			return
		}
		r.record(res.Sim, rep.outcome)
	}
}

// runFuzz searches recorded schedules; the first failing one is shrunk by
// delta debugging into a replayable reproducer.
func (r *runner) runFuzz(res *Result) {
	res.Fuzz = map[string]Outcome{}
	for i := 0; i < r.opt.schedules(); i++ {
		recSeed := netmodel.Rand(r.seed).Derive(uint64(0x1000 + 2*i))
		jitterSeed := netmodel.Rand(r.seed).Derive(uint64(0x1000 + 2*i + 1))
		rec := fuzz.NewRecorder(recSeed)
		rep := r.execute(rec, r.seed, jitterSeed)
		class := rep.class()
		if class == "" {
			r.record(res.Fuzz, rep.outcome)
			continue
		}
		s := r.schedule(rec.Decisions(), jitterSeed, recSeed, class)
		shrunk, tries := fuzz.ShrinkSchedule(s, func(cand *fuzz.Schedule) string {
			return r.execute(fuzz.NewReplayer(cand), r.seed, cand.WorkloadSeed).class()
		})
		res.Failures = append(res.Failures, &Failure{
			Mode: "fuzz", Class: class,
			Msg:             fmt.Sprintf("schedule %d: %s", i+1, rep.describe()),
			Violation:       rep.viol,
			Schedule:        shrunk,
			ShrunkDecisions: len(shrunk.Decisions),
			ShrinkTries:     tries,
		})
		return
	}
}

// schedule wraps a recorded decision list as a litmus schedule artifact:
// WorkloadSeed carries the jitter seed (the workload itself is the test's
// script), Litmus names the test, Expect pins the failure class.
func (r *runner) schedule(dec []fuzz.Decision, jitterSeed, recSeed uint64, class string) *fuzz.Schedule {
	return &fuzz.Schedule{
		Proto: r.t.Proto, Nodes: r.t.Nodes, Blocks: len(r.t.Blocks),
		Net:          r.t.Net,
		WorkloadSeed: jitterSeed,
		RecordSeed:   recSeed,
		Decisions:    dec,
		Litmus:       r.t.Name,
		Expect:       class,
	}
}

// Replay re-judges a litmus schedule artifact against its test: the path
// from a reproducer on disk back to a verdict. The returned class is ""
// when the schedule runs clean; applied is how many of its decisions took
// effect.
func Replay(t *Test, s *fuzz.Schedule, opt Options) (class, desc string, applied int, err error) {
	opt.Mode = "fuzz" // replay needs the oracle profile, nothing else
	opt.normalize()
	if s.Litmus != t.Name {
		return "", "", 0, fmt.Errorf("litmus: schedule drives test %q, not %q", s.Litmus, t.Name)
	}
	if s.Proto != t.Proto || s.Nodes != t.Nodes || s.Blocks != len(t.Blocks) {
		return "", "", 0, fmt.Errorf("litmus: schedule shape %s/%dn/%db does not match test %s (%s/%dn/%db)",
			s.Proto, s.Nodes, s.Blocks, t.Name, t.Proto, t.Nodes, len(t.Blocks))
	}
	r, err := newRunner(t, opt)
	if err != nil {
		return "", "", 0, err
	}
	rp := fuzz.NewReplayer(s)
	rep := r.execute(rp, r.seed, s.WorkloadSeed)
	return rep.class(), rep.describe(), rp.Applied(), nil
}

// ---- model-checker substrate ----

// outcomeFromWorld reads a terminal world's outcome off the client plane.
func outcomeFromWorld(t *Test, w *mc.World) Outcome {
	o := newOutcome(t)
	regs := w.ClientRegs()
	for n := range t.Progs {
		for _, v := range regs[n] {
			o.Regs = append(o.Regs, tempest.ValueOf(v))
		}
	}
	for _, v := range w.ClientFinal() {
		o.Mem = append(o.Mem, tempest.ValueOf(v))
	}
	return o
}

// mcSpec is the run spec the checker explores: the script on the client
// plane, as the only event source, under the state budget.
func (r *runner) mcSpec() (core.RunSpec, error) {
	client, err := mc.NewClient(r.spec.Proto, r.script, r.t.Init)
	if err != nil {
		return core.RunSpec{}, fmt.Errorf("litmus %s: %w", r.t.Name, err)
	}
	spec := r.spec
	spec.Events = nil
	spec.Client = client
	spec.MaxStates = r.opt.Budget
	return spec, nil
}

// runMC explores the test exhaustively. Pass 1 collects the reachable
// outcome set (the Terminal hook approves every terminal state); when a
// forbidden outcome is reachable, pass 2 re-runs with a judging hook so
// the checker reports the shortest trace into it, and the counterexample
// is confirmed by replaying its steps (confirmForbidden).
func (r *runner) runMC(res *Result) error {
	t := r.t
	spec, err := r.mcSpec()
	if err != nil {
		return err
	}

	var mu sync.Mutex
	res.MC = map[string]Outcome{}
	spec.Terminal = func(w *mc.World) string {
		o := outcomeFromWorld(t, w)
		mu.Lock()
		r.record(res.MC, o)
		mu.Unlock()
		return ""
	}
	spec.Coverage = r.opt.Coverage
	mcres, err := core.Check(spec)
	if err != nil {
		return fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	res.MCStates = mcres.States
	if v := mcres.Violation; v != nil {
		class := "error"
		if v.Kind == "state-limit" {
			class = "state-limit"
		}
		res.Failures = append(res.Failures, &Failure{
			Mode: "mc", Class: class,
			Msg:         fmt.Sprintf("%s: %s", v.Kind, v.Msg),
			MCViolation: v,
		})
		return nil
	}

	// Allow/expect judgments need the complete reachable set.
	for _, c := range t.Conds {
		switch c.Sense {
		case Allow:
			if !r.anySatisfies(res.MC, c) {
				res.Failures = append(res.Failures, &Failure{
					Mode: "mc", Class: "error",
					Msg: fmt.Sprintf("allowed outcome %q is unreachable: no checker outcome satisfies %s",
						c.Name, c.String(t.Blocks)),
				})
			}
		case Expect:
			for _, k := range t.SortedKeys(res.MC) {
				if !t.Satisfies(res.MC[k], c) {
					res.Failures = append(res.Failures, &Failure{
						Mode: "mc", Class: "error",
						Msg: fmt.Sprintf("expected condition %q violated by reachable outcome %s", c.Name, k),
					})
					break
				}
			}
		}
	}

	// Forbidden outcome reachable: pass 2 derives the counterexample.
	name := ""
	for _, k := range t.SortedKeys(res.MC) {
		if n := t.ForbiddenBy(res.MC[k]); n != "" {
			name = n
			break
		}
	}
	if name == "" {
		return nil
	}
	spec.Terminal = func(w *mc.World) string {
		o := outcomeFromWorld(t, w)
		if n := t.ForbiddenBy(o); n != "" {
			return fmt.Sprintf("forbidden final state %s: %s", n, t.Key(o))
		}
		return ""
	}
	spec.Coverage = nil // pass 1 has counted this state space
	jres, err := core.Check(spec)
	if err != nil {
		return fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	if jres.Violation == nil {
		return fmt.Errorf("litmus %s: forbidden outcome collected in pass 1 but judging pass found none", t.Name)
	}
	confirmed, err := confirmForbidden(t, spec.Config, jres.Violation)
	if err != nil {
		return fmt.Errorf("litmus %s: counterexample replay: %w", t.Name, err)
	}
	res.Failures = append(res.Failures, &Failure{
		Mode: "mc", Class: "forbidden:" + confirmed,
		Msg: fmt.Sprintf("%s (%d-step counterexample, replay-confirmed)",
			jres.Violation.Msg, len(jres.Violation.Steps)),
		MCViolation: jres.Violation,
	})
	return nil
}

func (r *runner) anySatisfies(set map[string]Outcome, c Cond) bool {
	for _, o := range set {
		if r.t.Satisfies(o, c) {
			return true
		}
	}
	return false
}

// confirmForbidden puts the judging pass's counterexample through the
// checker's differential (mc.DiffReplay), then replays it once more to
// re-derive the forbidden condition from the final world — confirmation
// that the trace actually reaches the forbidden outcome. Returns the
// condition name.
func confirmForbidden(t *Test, cfg mc.Config, v *mc.Violation) (string, error) {
	if err := mc.DiffReplay(cfg, v.Steps); err != nil {
		return "", err
	}
	name := ""
	err := mc.ReplaySteps(cfg, v.Steps, func(i int, st mc.Step, ev *mc.Event, w *mc.World, applyErr error) error {
		if applyErr != nil {
			return fmt.Errorf("step %d (%v): %w", i, st, applyErr)
		}
		if i == len(v.Steps)-1 {
			if !w.ClientDone() {
				return fmt.Errorf("final replay state is not terminal: scripts still running")
			}
			o := outcomeFromWorld(t, w)
			name = t.ForbiddenBy(o)
			if name == "" {
				return fmt.Errorf("final replay outcome %s is not forbidden", t.Key(o))
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return name, nil
}
