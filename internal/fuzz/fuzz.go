package fuzz

import (
	"fmt"

	"teapot/internal/core"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/oracle"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// Config shapes a fuzzing campaign.
type Config struct {
	Proto  string
	Nodes  int // default 3
	Blocks int // default 2
	Net    netmodel.Model

	Schedules  int    // schedules per campaign (default 100)
	OpsPerNode int    // workload length (default 40)
	Seed       uint64 // master seed; 0 derives one from the run shape

	// Coverage, when set, accumulates dispatch/transition/fault coverage
	// across every schedule in the campaign (teed behind the oracle, so the
	// judging path is unchanged).
	Coverage *obs.Coverage
}

// maxRunEvents caps each scheduled run. Clean fuzz workloads finish in a
// few thousand events; a run that burns a million is stuck in a resend
// storm and should come back as an error, not spin toward tempest's
// 100M-event safety net.
const maxRunEvents = 1_000_000

// Fuzzer runs seeded schedules of one protocol. The compiled protocol and
// support module are built once; so is the Judge every schedule, shrink
// and replay runs on, on first use. A Fuzzer is not safe for concurrent
// use.
type Fuzzer struct {
	cfg   Config
	spec  core.RunSpec
	prof  protocols.Profile // how runs are driven and judged (the table's)
	judge *Judge
}

// New builds a fuzzer, compiling the protocol.
func New(cfg Config) (*Fuzzer, error) {
	if cfg.Proto == "" {
		return nil, fmt.Errorf("fuzz: no protocol")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 2
	}
	if cfg.Schedules == 0 {
		cfg.Schedules = 100
	}
	if cfg.OpsPerNode == 0 {
		cfg.OpsPerNode = 40
	}
	prof, err := protocols.OracleProfile(cfg.Proto)
	if err != nil {
		return nil, err
	}
	spec, err := protocols.Spec(cfg.Proto, cfg.Nodes, cfg.Blocks)
	if err != nil {
		return nil, err
	}
	spec.Net = cfg.Net
	if err := spec.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = spec.EffectiveSeed()
	}
	return &Fuzzer{cfg: cfg, spec: spec, prof: prof}, nil
}

// Spec exposes the underlying run spec (for mc cross-checking).
func (f *Fuzzer) Spec() core.RunSpec { return f.spec }

// Report is the outcome of one scheduled run.
type Report struct {
	Violation *oracle.Violation // oracle verdict (nil = coherent)
	RunErr    error             // simulator/protocol failure (deadlock, protocol error)
	Stats     *tempest.Stats
	Steps     uint64 // choice points the run exposed
	Applied   int    // replays: how many of the schedule's decisions took effect
}

// Failed reports whether the run is a fuzzing failure.
func (r *Report) Failed() bool { return r.Violation != nil || r.RunErr != nil }

// class buckets a report for shrink-predicate purposes: shrinking must
// preserve the failure class, not the exact message.
func (r *Report) class() string {
	switch {
	case r.Violation != nil:
		return "violation"
	case r.RunErr != nil:
		return "error"
	}
	return ""
}

// Failure is a failing schedule plus its verdict.
type Failure struct {
	Schedule *Schedule
	Report   *Report
}

// Result summarizes a campaign.
type Result struct {
	Ran     int    // schedules executed
	Steps   uint64 // total choice points exposed
	Failure *Failure
}

// Fuzz runs up to cfg.Schedules seeded schedules, stopping at the first
// failure. Each schedule gets its own recorder and workload seed derived
// from the master seed, so a campaign is reproducible as a whole and every
// individual failure is reproducible from its Schedule alone.
func (f *Fuzzer) Fuzz() (*Result, error) {
	res := &Result{}
	for i := 0; i < f.cfg.Schedules; i++ {
		recSeed := netmodel.Rand(f.cfg.Seed).Derive(uint64(2 * i))
		wSeed := netmodel.Rand(f.cfg.Seed).Derive(uint64(2*i + 1))
		rec := NewRecorder(recSeed)
		rep := f.runWith(rec, wSeed, nil)
		rep.Steps = rec.Steps()
		res.Ran++
		res.Steps += rec.Steps()
		if rep.Failed() {
			res.Failure = &Failure{Schedule: f.schedule(rec.Decisions(), wSeed, recSeed), Report: rep}
			return res, nil
		}
	}
	return res, nil
}

// Seed exposes the campaign's effective master seed (after derivation
// from the run shape when Config.Seed was 0).
func (f *Fuzzer) Seed() uint64 { return f.cfg.Seed }

// ReplayObserved replays one schedule with an extra sink teed into the
// run's event stream — how a failing schedule gets a flight-recorder pass
// after the campaign stops.
func (f *Fuzzer) ReplayObserved(s *Schedule, sink obs.Sink) *Report {
	rp := NewReplayer(s)
	rep := f.runWith(rp, s.WorkloadSeed, sink)
	rep.Steps, rep.Applied = rp.Steps(), rp.Applied()
	return rep
}

// Replay runs one schedule through the fuzzer's compiled protocol.
func (f *Fuzzer) Replay(s *Schedule) *Report { return f.ReplayObserved(s, nil) }

// ReplaySchedule reconstructs a fuzzer from a serialized schedule and
// replays it: the path from artifact on disk back to a verdict.
func ReplaySchedule(s *Schedule) (*Report, error) {
	if s.Litmus != "" {
		return nil, fmt.Errorf("fuzz: schedule drives litmus test %q — replay it with teapot litmus -replay", s.Litmus)
	}
	net, err := s.NetModel()
	if err != nil {
		return nil, err
	}
	f, err := New(Config{
		Proto: s.Proto, Nodes: s.Nodes, Blocks: s.Blocks, Net: net,
		OpsPerNode: s.OpsPerNode,
	})
	if err != nil {
		return nil, err
	}
	return f.Replay(s), nil
}

// runWith executes one run of a fresh workload from wSeed under the given
// chooser on the fuzzer's judge, with sink (when non-nil) teed into its
// event stream.
func (f *Fuzzer) runWith(ch tempest.Chooser, wSeed uint64, sink obs.Sink) *Report {
	prog := RandomProgram(WorkloadOpts{
		Nodes: f.cfg.Nodes, Blocks: f.cfg.Blocks, OpsPerNode: f.cfg.OpsPerNode,
		Seed: wSeed, Evict: f.prof.Evict, Sync: f.prof.Sync,
	})
	if f.judge == nil {
		f.judge = NewJudge(f.spec, oracle.Config{Inv: f.prof.Inv}, f.cfg.Coverage)
	}
	// The fault RNG's seed: a chooser takes every fault decision, so the
	// run never draws from it.
	checker, stats, err := f.judge.Run(prog, f.cfg.Seed, ch, sink)
	return &Report{Violation: checker.Finish(), RunErr: err, Stats: stats}
}

// Judge runs programs on one shape of simulated machine — protocol, nodes,
// blocks, network model and oracle configuration — with the data-version
// model on, an event cap, and its event stream judged by an oracle ahead of
// the run's extra sink and the campaign's coverage. It owns one machine,
// its engines, one oracle and the tee between them, built once and reset
// before every Run (tempest.Machine.Reset, oracle.Checker.Reset), so a run
// costs only its events. Every fuzz schedule, every litmus sim and fuzz
// run, and every shrink and replay is a Run. A Judge is not safe for
// concurrent use.
type Judge struct {
	m   *tempest.Machine
	tee judgeTee
}

// judgeTee is the judge's sink: the oracle first, then the run's extra sink
// and the coverage, each when there is one.
type judgeTee struct {
	oracle *oracle.Checker
	extra  obs.Sink
	cov    *obs.Coverage
}

func (t *judgeTee) Emit(ev obs.Event) {
	t.oracle.Emit(ev)
	if t.extra != nil {
		t.extra.Emit(ev)
	}
	if t.cov != nil {
		t.cov.Emit(ev)
	}
}

func (t *judgeTee) SetClock(now func() int64) { t.oracle.SetClock(now) }

// NewJudge builds a judge for spec's protocol, support, shape and network;
// spec's program, seed and sink are Run's arguments instead. oc configures
// the oracle, its machine shape filled in from spec; cov, when non-nil,
// accumulates coverage over every run.
func NewJudge(spec core.RunSpec, oc oracle.Config, cov *obs.Coverage) *Judge {
	oc.Nodes, oc.Blocks = spec.Nodes, spec.Blocks
	j := &Judge{tee: judgeTee{oracle: oracle.New(oc), cov: cov}}
	spec.Obs = &j.tee
	spec.InitMem = oc.InitMem
	spec.MaxEvents = maxRunEvents
	cfg := spec.SimConfig()
	cfg.ObsMemory = true
	j.m = tempest.New(cfg)
	return j
}

// Run executes prog once under chooser ch (nil: stochastic injection seeded
// with seed), with extra (when non-nil) teed into the event stream and
// driven by the machine's clock. The caller reads the verdict, and with
// oracle.Config.TrackReads the observations, off the returned oracle, which
// is the judge's own: valid until the next Run.
func (j *Judge) Run(prog tempest.Program, seed uint64, ch tempest.Chooser, extra obs.Sink) (*oracle.Checker, *tempest.Stats, error) {
	j.tee.oracle.Reset()
	j.m.Reset(prog, seed, ch)
	if cs, ok := extra.(obs.ClockSetter); ok {
		cs.SetClock(j.m.Now)
	}
	j.tee.extra = extra
	stats, err := j.m.Run()
	j.tee.extra = nil
	return j.tee.oracle, stats, err
}

func (f *Fuzzer) schedule(dec []Decision, wSeed, recSeed uint64) *Schedule {
	return &Schedule{
		Proto: f.cfg.Proto, Nodes: f.cfg.Nodes, Blocks: f.cfg.Blocks,
		Net:          f.cfg.Net.String(),
		WorkloadSeed: wSeed,
		OpsPerNode:   f.cfg.OpsPerNode,
		RecordSeed:   recSeed,
		Decisions:    dec,
	}
}

// ConfirmMC cross-checks a fuzz-found failure with the model checker: it
// exhaustively explores the fuzzer's spec (same protocol, machine size, and
// fault budgets) and returns the checker's verdict. A fuzz campaign that
// found a violation should see the checker find one too (and its
// counterexample pass mc.DiffReplay).
func (f *Fuzzer) ConfirmMC(maxStates int) (*mc.Result, error) {
	spec := f.spec
	spec.MaxStates = maxStates
	return core.Check(spec)
}

var _ obs.Sink = (*oracle.Checker)(nil)
