package litmus

import (
	"reflect"
	"slices"
	"testing"

	"teapot/internal/core"
	"teapot/internal/fuzz"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/oracle"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// judgeRun is one run of a reuse sequence: its program, the fault RNG's
// seed and the chooser (nil: seeded injection). Each call builds them anew.
type judgeRun struct {
	prog    func() tempest.Program
	seed    uint64
	chooser func() tempest.Chooser
}

// judgeCase is a sequence of runs on one shape.
type judgeCase struct {
	name string
	spec core.RunSpec
	oc   oracle.Config
	runs []judgeRun
}

// judged is everything a run reports: the verdict, the stats, the oracle's
// reads and final values, the chooser's step count and recorded decisions
// and, when a log was attached, the event stream with the machine's
// timestamps.
type judged struct {
	Violation *oracle.Violation
	Err       string
	Stats     *tempest.Stats
	Reads     [][]int64
	Final     []int64
	Steps     uint64
	Decisions []fuzz.Decision
	Events    []obs.Event
}

func (j *judged) class() string {
	switch {
	case j.Violation != nil:
		return "violation"
	case j.Err != "":
		return "error"
	}
	return "clean"
}

// clockedLog keeps every event, stamped by the clock it was given.
type clockedLog struct {
	now func() int64
	evs []obs.Event
}

func (l *clockedLog) SetClock(now func() int64) { l.now = now }
func (l *clockedLog) Emit(ev obs.Event)         { ev.Time = l.now(); l.evs = append(l.evs, ev) }

// judge runs r on j, with a clocked log attached when logged.
func judge(j *fuzz.Judge, c *judgeCase, r judgeRun, logged bool) judged {
	var ch tempest.Chooser
	if r.chooser != nil {
		ch = r.chooser()
	}
	var log *clockedLog
	var extra obs.Sink
	if logged {
		log = &clockedLog{}
		extra = log
	}
	checker, stats, err := j.Run(r.prog(), r.seed, ch, extra)
	out := judged{Violation: checker.Finish(), Stats: stats}
	if err != nil {
		out.Err = err.Error()
	}
	for n := 0; n < c.spec.Nodes; n++ {
		out.Reads = append(out.Reads, slices.Clone(checker.Reads(n)))
	}
	for b := 0; b < c.spec.Blocks; b++ {
		out.Final = append(out.Final, checker.FinalValue(b))
	}
	if s, ok := ch.(interface{ Steps() uint64 }); ok {
		out.Steps = s.Steps()
	}
	if rec, ok := ch.(*fuzz.Recorder); ok {
		out.Decisions = rec.Decisions()
	}
	if log != nil {
		out.Events = log.evs
	}
	return out
}

// corpusCases turns every test of the litmus corpus into the sequence its
// runner makes — the sim runs, then the first fuzz schedules — on the
// runner's own judge configuration.
func corpusCases(t *testing.T, schedules int) []judgeCase {
	t.Helper()
	tests, err := LoadDir("../../testdata/litmus")
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 11 {
		t.Fatalf("corpus has %d tests, want 11", len(tests))
	}
	var cases []judgeCase
	for _, tt := range tests {
		opt := Options{Mode: "all"}
		opt.normalize()
		r, err := newRunner(tt, opt)
		if err != nil {
			t.Fatal(err)
		}
		c := judgeCase{name: tt.Name, spec: r.spec,
			oc: oracle.Config{Inv: r.prof.Inv, InitMem: tt.Init, TrackReads: true}}
		for k := 0; k < simRuns; k++ {
			seed := netmodel.Rand(r.seed).Derive(uint64(0x510 + k))
			var jitter uint64
			if k > 0 {
				jitter = netmodel.Rand(seed).Derive(1)
			}
			c.runs = append(c.runs, judgeRun{prog: func() tempest.Program { return r.program(jitter) }, seed: seed})
		}
		for i := 0; i < schedules; i++ {
			recSeed := netmodel.Rand(r.seed).Derive(uint64(0x1000 + 2*i))
			jitter := netmodel.Rand(r.seed).Derive(uint64(0x1000 + 2*i + 1))
			c.runs = append(c.runs, judgeRun{
				prog:    func() tempest.Program { return r.program(jitter) },
				seed:    r.seed,
				chooser: func() tempest.Chooser { return fuzz.NewRecorder(recSeed) },
			})
		}
		cases = append(cases, c)
	}
	return cases
}

// campaign is a fuzz-shaped sequence of n runs on a bundled protocol, after
// the leading runs given: random workloads under, in turn, seeded
// injection, a recorded schedule and the empty schedule (a fault-free run).
func campaign(t *testing.T, name, proto string, nodes int, net netmodel.Model, inv oracle.Invariants, lead []judgeRun, n int) judgeCase {
	t.Helper()
	spec, err := protocols.Spec(proto, nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = net
	evict := inv.Data
	c := judgeCase{name: name, spec: spec, oc: oracle.Config{Inv: inv}, runs: lead}
	for i := 0; i < n; i++ {
		wSeed := netmodel.Rand(1).Derive(uint64(2 * i))
		recSeed := netmodel.Rand(1).Derive(uint64(2*i + 1))
		r := judgeRun{
			prog: func() tempest.Program {
				return fuzz.RandomProgram(fuzz.WorkloadOpts{Nodes: nodes, Blocks: 2, OpsPerNode: 40, Seed: wSeed, Evict: evict})
			},
			seed: recSeed,
		}
		switch i % 3 {
		case 1:
			r.chooser = func() tempest.Chooser { return fuzz.NewRecorder(recSeed) }
		case 2:
			r.chooser = func() tempest.Chooser { return fuzz.NewReplayer(&fuzz.Schedule{}) }
		}
		c.runs = append(c.runs, r)
	}
	return c
}

// TestJudgeReuseMatchesFresh: one Judge run over a sequence agrees with a
// judge built afresh for each run — on the verdict, the violation with its
// context, the stats, the oracle's reads and final values, the chooser's
// steps and the timestamped event stream — so nothing of one run leaks
// into the next: not a deferred queue, timer, flow id, held message or
// fault budget, and not after a run that stopped with an error either.
func TestJudgeReuseMatchesFresh(t *testing.T) {
	cases := corpusCases(t, 24)

	// The committed seeded-bug reproducer: a violation, then clean runs.
	repro, err := fuzz.Load("../../testdata/repro/stache-ft-buggy-ack.json")
	if err != nil {
		t.Fatal(err)
	}
	replay := judgeRun{
		prog: func() tempest.Program {
			return fuzz.RandomProgram(fuzz.WorkloadOpts{Nodes: repro.Nodes, Blocks: repro.Blocks,
				OpsPerNode: repro.OpsPerNode, Seed: repro.WorkloadSeed, Evict: true})
		},
		seed:    1,
		chooser: func() tempest.Chooser { return fuzz.NewReplayer(repro) },
	}
	all := oracle.AllInvariants()
	cases = append(cases,
		campaign(t, "stache-ft drop=1", "stache-ft", 3, netmodel.Model{MaxDrops: 1}, all, nil, 60),
		campaign(t, "stache-ft drop=1,dup=1", "stache-ft", 3, netmodel.Model{MaxDrops: 1, MaxDups: 1, Delay: 1}, all, nil, 60),
		campaign(t, "lcm reorder=1", "lcm", 3, netmodel.Model{Reorder: 1}, oracle.Invariants{}, nil, 60),
		campaign(t, "stache drop=1", "stache", 3, netmodel.Model{MaxDrops: 1}, all, nil, 30),
		campaign(t, "stache dup=1", "stache", 3, netmodel.Model{MaxDups: 1}, all, nil, 30),
		campaign(t, "stache-ft-buggy repro", "stache-ft-buggy", 3, netmodel.Model{MaxDrops: 1}, all, []judgeRun{replay}, 30),
	)

	for _, c := range cases {
		reused := fuzz.NewJudge(c.spec, c.oc, nil)
		classes := map[string]int{}
		afterError := false // a run that ended in an error has been followed by a clean one
		prev := ""
		var first judged
		var timeouts int64
		var holds int
		for i, r := range c.runs {
			logged := i%2 == 0
			got := judge(reused, &c, r, logged)
			want := judge(fuzz.NewJudge(c.spec, c.oc, nil), &c, r, logged)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, run %d: the reused judge reports\n  %+v\nand a new one\n  %+v", c.name, i, got, want)
			}
			class := got.class()
			classes[class]++
			if i == 0 {
				first = got
			}
			if got.Stats != nil {
				timeouts += got.Stats.Timeouts
			}
			for _, d := range got.Decisions {
				if d.Kind == "hold" {
					holds++
				}
			}
			if prev == "error" && class == "clean" {
				afterError = true
			}
			prev = class
		}
		t.Logf("%s: %d runs: %v", c.name, len(c.runs), classes)
		// What each sequence is there to exercise.
		switch c.name {
		case "stache drop=1", "stache dup=1": // a deadlock; a protocol error mid-run
			if first.class() != "error" || !afterError {
				t.Errorf("%s: want a failed first run and a clean run after a failed one; first: %s", c.name, first.class())
			}
		case "stache-ft drop=1", "stache-ft drop=1,dup=1":
			if timeouts == 0 {
				t.Errorf("%s: no timer fired", c.name)
			}
		case "lcm reorder=1":
			if holds == 0 {
				t.Errorf("%s: no message was held", c.name)
			}
		case "stache-ft-buggy repro":
			if first.Violation == nil {
				t.Errorf("%s: the reproducer replays %s, not as a violation", c.name, first.class())
			}
		}
	}
}

// TestJudgeAllocs pins a warmed Judge.Run at fewer than 20 allocations on
// every corpus test, its recorder and trace cursor included: a run costs
// its events, not its machine.
func TestJudgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cases := corpusCases(t, 1)
	for _, c := range cases {
		j := fuzz.NewJudge(c.spec, c.oc, nil)
		for _, run := range []judgeRun{c.runs[1], c.runs[simRuns]} { // a jittered sim run, a fuzz run
			do := func() {
				var ch tempest.Chooser
				if run.chooser != nil {
					ch = run.chooser()
				}
				if _, _, err := j.Run(run.prog(), run.seed, ch, nil); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			do()
			if n := testing.AllocsPerRun(20, do); n >= 20 {
				t.Errorf("%s: a warmed Judge.Run allocates %v times, want fewer than 20", c.name, n)
			}
		}
	}
}

// TestRunnerAllocs pins a warmed runner run that repeats an outcome its set
// already holds — a jittered sim run and a fuzz run on each corpus test — at
// no more than a warmed Judge.Run's bound (20) plus 2: the outcome costs one
// allocation, and its key and forbid conditions none.
func TestRunnerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	tests, err := LoadDir("../../testdata/litmus")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		opt := Options{Mode: "all"}
		opt.normalize()
		r, err := newRunner(tt, opt)
		if err != nil {
			t.Fatal(err)
		}
		simSeed := netmodel.Rand(r.seed).Derive(0x511)
		recSeed := netmodel.Rand(r.seed).Derive(0x1000)
		jitter := netmodel.Rand(r.seed).Derive(0x1001)
		for _, run := range []struct {
			name string
			do   func() runReport
		}{
			{"sim", func() runReport { return r.execute(nil, simSeed, netmodel.Rand(simSeed).Derive(1)) }},
			{"fuzz", func() runReport { return r.execute(fuzz.NewRecorder(recSeed), r.seed, jitter) }},
		} {
			set := map[string]Outcome{}
			do := func() {
				rep := run.do()
				if class := rep.class(); class != "" {
					t.Fatalf("%s %s: %s", tt.Name, run.name, rep.describe())
				}
				r.record(set, rep.outcome)
			}
			do()
			n := testing.AllocsPerRun(20, do)
			if len(set) != 1 {
				t.Fatalf("%s %s: %d outcomes, want the one run's", tt.Name, run.name, len(set))
			}
			if n > 22 {
				t.Errorf("%s %s: a warmed runner run allocates %v times, want at most 22", tt.Name, run.name, n)
			}
		}
	}
}
