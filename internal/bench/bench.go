// Package bench regenerates the paper's evaluation: Table 1 (Stache
// performance), Table 2 (LCM performance), Table 3 (verification), the
// Figure 1/2/4 state machines, and the §6 code-size comparison, for the
// teapot-bench command. It reports facts (cycles, overheads, state
// counts); how long things take is measured by benchmarks/.
package bench

import (
	"fmt"
	"strings"
	"time"

	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/dot"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/protocols/bufwrite"
	"teapot/internal/protocols/lcm"
	"teapot/internal/protocols/stache"
	"teapot/internal/protocols/update"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// PerfRow is one benchmark line of Table 1 or Table 2.
type PerfRow struct {
	Benchmark   string
	C           int64 // hand-written state machine, cycles
	Unopt       int64 // Teapot unoptimized
	Opt         int64 // Teapot optimized
	AllocsOpt   int64 // continuation + queue records, optimized
	AllocsUnopt int64 // continuation + queue records, unoptimized
	FaultPct    float64
}

// OverheadUnopt returns the unoptimized overhead in percent.
func (r PerfRow) OverheadUnopt() float64 { return 100 * float64(r.Unopt-r.C) / float64(r.C) }

// OverheadOpt returns the optimized overhead in percent.
func (r PerfRow) OverheadOpt() float64 { return 100 * float64(r.Opt-r.C) / float64(r.C) }

// run executes one engine flavor over a workload.
func run(w *sim.Workload, nodes int, tags tempest.EventTags,
	mk func(m runtime.Machine) tempest.Engine) (*tempest.Stats, error) {
	w.Trace.Reset()
	return sim.Run(sim.Config{
		Nodes:      nodes,
		Blocks:     w.Blocks,
		Cost:       tempest.DefaultCost,
		Tags:       tags,
		MakeEngine: mk,
		Program:    w.Trace,
	})
}

func allocs(e *tempest.TeapotEngine, nodes int) int64 {
	var total int64
	for n := 0; n < nodes; n++ {
		c := e.Counters(n)
		total += c.HeapConts + c.QueueRecords
	}
	return total
}

// Table1 regenerates Table 1: Stache on gauss, appbt, shallow, mp3d.
func Table1(nodes, iters int) ([]PerfRow, error) {
	optArt := stache.MustCompile(true)
	unoptArt := stache.MustCompile(false)
	var rows []PerfRow
	for _, w := range sim.Table1Workloads(nodes, iters) {
		row := PerfRow{Benchmark: w.Name}
		tags := tempest.ResolveTags(optArt.Protocol)

		cs, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			return stache.NewHW(optArt.Protocol, nodes, w.Blocks, m)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/C: %w", w.Name, err)
		}
		row.C = cs.Cycles
		row.FaultPct = 100 * float64(cs.FaultTime) / float64(cs.Cycles*int64(nodes))

		var optEng, unoptEng *tempest.TeapotEngine
		os, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			optEng = tempest.NewTeapotEngine(optArt.Protocol, nodes, w.Blocks, m, stache.MustSupport(optArt.Protocol))
			return optEng
		})
		if err != nil {
			return nil, fmt.Errorf("%s/opt: %w", w.Name, err)
		}
		row.Opt = os.Cycles
		row.AllocsOpt = allocs(optEng, nodes)

		us, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			unoptEng = tempest.NewTeapotEngine(unoptArt.Protocol, nodes, w.Blocks, m, stache.MustSupport(unoptArt.Protocol))
			return unoptEng
		})
		if err != nil {
			return nil, fmt.Errorf("%s/unopt: %w", w.Name, err)
		}
		row.Unopt = us.Cycles
		row.AllocsUnopt = allocs(unoptEng, nodes)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2 regenerates Table 2: LCM on adaptive, stencil, unstruct.
func Table2(nodes, iters int) ([]PerfRow, error) {
	optArt := lcm.MustCompile(lcm.Base, true)
	unoptArt := lcm.MustCompile(lcm.Base, false)
	var rows []PerfRow
	for _, w := range sim.Table2Workloads(nodes, iters) {
		row := PerfRow{Benchmark: w.Name}
		tags := tempest.ResolveTags(optArt.Protocol)

		cs, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			return lcm.NewHW(optArt.Protocol, nodes, w.Blocks, m)
		})
		if err != nil {
			return nil, fmt.Errorf("%s/C: %w", w.Name, err)
		}
		row.C = cs.Cycles
		row.FaultPct = 100 * float64(cs.FaultTime) / float64(cs.Cycles*int64(nodes))

		var optEng, unoptEng *tempest.TeapotEngine
		os, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			optEng = tempest.NewTeapotEngine(optArt.Protocol, nodes, w.Blocks, m, lcm.MustSupport(optArt.Protocol, nodes))
			return optEng
		})
		if err != nil {
			return nil, fmt.Errorf("%s/opt: %w", w.Name, err)
		}
		row.Opt = os.Cycles
		row.AllocsOpt = allocs(optEng, nodes)

		us, err := run(w, nodes, tags, func(m runtime.Machine) tempest.Engine {
			unoptEng = tempest.NewTeapotEngine(unoptArt.Protocol, nodes, w.Blocks, m, lcm.MustSupport(unoptArt.Protocol, nodes))
			return unoptEng
		})
		if err != nil {
			return nil, fmt.Errorf("%s/unopt: %w", w.Name, err)
		}
		row.Unopt = us.Cycles
		row.AllocsUnopt = allocs(unoptEng, nodes)
		rows = append(rows, row)
	}
	return rows, nil
}

// VerifyRow is one line of Table 3.
type VerifyRow struct {
	Protocol     string
	Nodes        int
	Blocks       int
	Reorder      int
	Workers      int
	States       int
	Transitions  int
	Depth        int
	Elapsed      time.Duration
	VisitedBytes int64
	Violation    string
}

// check model-checks a bundled protocol at one shape under one network
// model, built the way teapot-verify builds it.
func check(proto string, nodes, blocks int, net netmodel.Model, workers int) (*mc.Result, error) {
	spec, err := protocols.Spec(proto, nodes, blocks)
	if err != nil {
		return nil, err
	}
	spec.Net, spec.Workers = net, workers
	return core.Check(spec)
}

// verify runs check and reports it as a Table 3 line labelled label.
func verify(label, proto string, nodes, blocks, reorder, workers int) (VerifyRow, error) {
	res, err := check(proto, nodes, blocks, netmodel.Model{Reorder: reorder}, workers)
	if err != nil {
		return VerifyRow{}, fmt.Errorf("%s: %w", label, err)
	}
	row := VerifyRow{
		Protocol: label, Nodes: nodes, Blocks: blocks, Reorder: reorder,
		Workers: res.Workers, States: res.States, Transitions: res.Transitions,
		Depth: res.MaxDepth, Elapsed: res.Elapsed, VisitedBytes: res.VisitedBytes,
	}
	if res.Violation != nil {
		row.Violation = res.Violation.Kind + ": " + res.Violation.Msg
	}
	return row, nil
}

// Table3 regenerates Table 3 with the given checker worker count
// (0 = GOMAXPROCS): Stache, Buffered-write, LCM simple, and LCM MCC at the
// paper's configurations (2 nodes, 1 address, bounded reordering) plus the
// two-address Stache the paper could not complete, and the write-update
// protocol beyond the paper.
func Table3(workers int) ([]VerifyRow, error) {
	var rows []VerifyRow
	for _, m := range []struct {
		label, proto    string
		blocks, reorder int
	}{
		{"Stache", "stache", 1, 1},
		{"Stache (2 addresses)", "stache", 2, 0},
		{"Buffered-Write", "bufwrite", 1, 1},
		{"LCM Simple", "lcm", 1, 1},
		{"LCM MCC", "lcm-mcc", 1, 1},
		{"Update (extra)", "update", 1, 1},
	} {
		row, err := verify(m.label, m.proto, 2, m.blocks, m.reorder, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FaultRow is one line of the fault sweep: how the explored state space
// grows with the network fault budget.
type FaultRow struct {
	Protocol    string
	Net         string
	States      int
	Transitions int
	Depth       int
	Violation   string
}

// FaultSweep checks the fault-tolerant Stache at 2 nodes / 1 block across
// network fault budgets, plus two deliberate edge rows: dup=2, where the
// recorded violation marks the verified envelope of an epoch-less protocol
// (a second duplicate lets a stale ack substitute for a fresh one — only
// per-message sequence numbers could tell them apart), and the base Stache
// under a single drop, whose recorded violation documents why the TIMEOUT
// machinery exists.
func FaultSweep(workers int) ([]FaultRow, error) {
	var rows []FaultRow
	for _, r := range []struct{ label, proto, net string }{
		{"Stache-FT", "stache-ft", ""},
		{"Stache-FT", "stache-ft", "reorder=1"},
		{"Stache-FT", "stache-ft", "drop=1"},
		{"Stache-FT", "stache-ft", "dup=1"},
		{"Stache-FT", "stache-ft", "drop=1,dup=1"},
		{"Stache-FT", "stache-ft", "drop=2,dup=1"},
		{"Stache-FT", "stache-ft", "dup=2"},
		{"Stache", "stache", "drop=1"},
	} {
		net, err := netmodel.Parse(r.net)
		if err != nil {
			return nil, err
		}
		res, err := check(r.proto, 2, 1, net, workers)
		if err != nil {
			return nil, fmt.Errorf("%s net=%q: %w", r.label, r.net, err)
		}
		row := FaultRow{
			Protocol: r.label, Net: r.net,
			States: res.States, Transitions: res.Transitions, Depth: res.MaxDepth,
		}
		if row.Net == "" {
			row.Net = "none"
		}
		if res.Violation != nil {
			row.Violation = res.Violation.Kind
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFaults renders the fault sweep as a table.
func FormatFaults(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: state-space growth vs. network fault budget (2 nodes, 1 block)\n")
	fmt.Fprintf(&b, "%-10s %-14s %9s %12s %6s  %s\n", "protocol", "net", "states", "transitions", "depth", "result")
	for _, r := range rows {
		result := "verified"
		if r.Violation != "" {
			result = "VIOLATION " + r.Violation
		}
		fmt.Fprintf(&b, "%-10s %-14s %9d %12d %6d  %s\n",
			r.Protocol, r.Net, r.States, r.Transitions, r.Depth, result)
	}
	return b.String()
}

// ReorderSweep verifies Stache across reordering bounds (the paper:
// "unrestricted reordering led to impractical simulation sizes"; it capped
// at 1 — we sweep 0..2).
func ReorderSweep() ([]VerifyRow, error) {
	var rows []VerifyRow
	for reorder := 0; reorder <= 2; reorder++ {
		row, err := verify("Stache", "stache", 2, 1, reorder, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BugHunt reproduces the §7 story: the model checker finds the seeded
// upgrade/invalidate deadlock and produces an event trace.
func BugHunt() (*mc.Result, error) {
	return check("stache-buggy", 2, 1, netmodel.Model{}, 0)
}

// FigureRow summarizes one extracted state machine.
type FigureRow struct {
	Figure string
	States int
	Edges  int
	DOT    string
}

// Figures regenerates Figures 1, 2, and 4.
func Figures() []FigureRow {
	a := stache.MustCompile(true)
	mk := func(fig, prefix string, transient bool) FigureRow {
		m := dot.Extract(a.IR, dot.Options{Prefix: prefix, IncludeTransient: transient})
		return FigureRow{Figure: fig, States: len(m.States), Edges: len(m.Edges),
			DOT: dot.Render(m, fig)}
	}
	return []FigureRow{
		mk("figure-1-nonhome-idealized", "Cache_", false),
		mk("figure-2-home-idealized", "Home_", false),
		mk("figure-4-home-with-intermediates", "Home_", true),
		mk("full-machine", "", true),
	}
}

// LoCRow is one line of the §6 code-size comparison.
type LoCRow struct {
	Protocol  string
	Teapot    int // Teapot source lines
	Generated int // generated Go lines (the paper's generated C)
	Hand      int // hand-written state machine lines (where one exists)
}

// LinesOfCode regenerates the §6 comparison (Stache: 600 Teapot → 1000 C,
// hand-written ≈ 1000; LCM: 1500 → 2300, hand-written ≈ 2500).
func LinesOfCode(handStache, handLCM int) []LoCRow {
	count := func(s string) int { return strings.Count(s, "\n") }
	st := stache.MustCompile(true)
	lc := lcm.MustCompile(lcm.Base, true)
	bw := bufwrite.MustCompile(true)
	return []LoCRow{
		{Protocol: "Stache", Teapot: count(stache.Source),
			Generated: count(codegen.Generate(st.IR, "proto")), Hand: handStache},
		{Protocol: "LCM", Teapot: count(lcm.Source(lcm.Base)),
			Generated: count(codegen.Generate(lc.IR, "proto")), Hand: handLCM},
		{Protocol: "Buffered-Write", Teapot: count(bufwrite.Source),
			Generated: count(codegen.Generate(bw.IR, "proto"))},
	}
}

// ProducerConsumerRow compares invalidation (Stache) against write-update
// on the §1 producer-consumer pattern ("invalidating outstanding copies
// forces the consumers to re-request data, which requires up to four
// protocol messages for a small data transfer").
type ProducerConsumerRow struct {
	Protocol string
	Cycles   int64
	Faults   int64
	Messages int64
}

// ProducerConsumer runs the comparison at the given machine size.
func ProducerConsumer(nodes, iters int) ([]ProducerConsumerRow, error) {
	var rows []ProducerConsumerRow
	mk := func() *sim.Workload {
		return sim.ProdCons(sim.WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 77})
	}
	st := stache.MustCompile(true).Protocol
	s1, err := run(mk(), nodes, tempest.ResolveTags(st), func(m runtime.Machine) tempest.Engine {
		return tempest.NewTeapotEngine(st, nodes, mk().Blocks, m, stache.MustSupport(st))
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ProducerConsumerRow{"Stache (invalidate)", s1.Cycles, s1.Faults, s1.Messages})
	up := update.MustCompile(true).Protocol
	s2, err := run(mk(), nodes, tempest.ResolveTags(up), func(m runtime.Machine) tempest.Engine {
		return tempest.NewTeapotEngine(up, nodes, mk().Blocks, m, update.MustSupport(up))
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ProducerConsumerRow{"Update (multicast)", s2.Cycles, s2.Faults, s2.Messages})
	return rows, nil
}

// FormatPerf renders Table 1/2 in the paper's layout.
func FormatPerf(title string, rows []PerfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %12s %22s %22s %18s %10s\n",
		"Benchmark", "C Machine", "Teapot Unoptimized", "Teapot Optimized", "Allocs Opt/Unopt", "Fault time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %14d (%4.1f%%) %14d (%4.1f%%) %8d / %-8d %9.0f%%\n",
			r.Benchmark, r.C,
			r.Unopt, r.OverheadUnopt(),
			r.Opt, r.OverheadOpt(),
			r.AllocsOpt, r.AllocsUnopt, r.FaultPct)
	}
	return b.String()
}

// FormatVerify renders Table 3.
func FormatVerify(rows []VerifyRow) string {
	var b strings.Builder
	b.WriteString("Table 3: Protocol verification\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s %10s %12s %8s %10s %10s %s\n",
		"Protocol", "Nodes", "Blocks", "Reorder", "Workers", "States",
		"Transitions", "Depth", "Time", "Bytes/st", "Result")
	for _, r := range rows {
		result := "verified"
		if r.Violation != "" {
			result = r.Violation
		}
		bytesPer := "-"
		if r.States > 0 && r.VisitedBytes > 0 {
			bytesPer = fmt.Sprintf("%.0f", float64(r.VisitedBytes)/float64(r.States))
		}
		fmt.Fprintf(&b, "%-22s %8d %8d %8d %8d %10d %12d %8d %10s %10s %s\n",
			r.Protocol, r.Nodes, r.Blocks, r.Reorder, r.Workers, r.States,
			r.Transitions, r.Depth, r.Elapsed.Round(time.Millisecond), bytesPer, result)
	}
	return b.String()
}
