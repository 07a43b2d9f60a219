package cli

import (
	"fmt"
	"io"
	"strings"
	"time"

	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/dot"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// cmdTables regenerates the paper's evaluation: Table 1 (Stache performance),
// Table 2 (LCM performance), Table 3 (verification) with the fault sweep,
// the Figure 1/2/4 state machines, the §6 code-size comparison, the §1
// producer-consumer comparison and the §7 bug hunt. It reports facts
// (cycles, overheads, state counts); how long things take is measured by
// benchmarks/.
//
//	teapot tables            # everything
//	teapot tables -table 3   # Table 3 and the fault sweep only
//	teapot tables -figures   # Figures 1/2/4 as DOT
//	teapot tables -loc       # §6 code-size comparison
//	teapot tables -bug       # the §7 bug-hunt reproduction
//
// The only negative verdict is a bug hunt that does not find the seeded bug.
func cmdTables(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("tables", stderr, "[flags]")
	var (
		table   = intRange(fs, "table", 0, 0, 3, "regenerate one table (1, 2, or 3); 0 = all")
		figures = fs.Bool("figures", false, "emit Figures 1/2/4 as DOT")
		loc     = fs.Bool("loc", false, "emit the code-size comparison")
		bug     = fs.Bool("bug", false, "run the seeded-bug hunt (§7)")
		nodes   = addNodes(fs, 32, 1)
		iters   = addIters(fs)
		workers = addWorkers(fs)
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	all := !*figures && !*loc && !*bug && *table == 0

	if *table == 1 || all {
		rows, err := perfTable("stache", sim.Table1Workloads(*nodes, *iters), *nodes)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, formatPerf(fmt.Sprintf("Table 1: Stache performance (%d nodes)", *nodes), rows))
	}
	if *table == 2 || all {
		rows, err := perfTable("lcm", sim.Table2Workloads(*nodes, *iters), *nodes)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, formatPerf(fmt.Sprintf("Table 2: LCM performance (%d nodes)", *nodes), rows))
	}
	if *table == 3 || all {
		rows, err := table3(*workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, formatVerify(rows))
		faultRows, err := faultSweep(*workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, formatFaults(faultRows))
	}
	if *figures || all {
		figs, err := paperFigures()
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Fprintf(stdout, "%s: %d states, %d edges\n", f.Figure, f.States, f.Edges)
			if *figures {
				fmt.Fprintln(stdout, f.DOT)
			}
		}
		fmt.Fprintln(stdout)
	}
	if *loc || all {
		rows, err := linesOfCode()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Code size (§6; the paper: Stache 600 Teapot -> ~1000 C, LCM 1500 -> ~2300 C)")
		for _, r := range rows {
			fmt.Fprintf(stdout, "  %-14s %5d Teapot lines -> %5d generated Go lines\n",
				r.Protocol, r.Teapot, r.Generated)
		}
		fmt.Fprintln(stdout)
	}
	if all {
		rows, err := producerConsumer(*nodes, *iters)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Producer-consumer (§1 motivation): invalidation vs write-update")
		for _, r := range rows {
			fmt.Fprintf(stdout, "  %-22s cycles=%-9d faults=%-6d messages=%d\n",
				r.Protocol, r.Cycles, r.Faults, r.Messages)
		}
		fmt.Fprintln(stdout)
	}
	if *bug || all {
		res, err := bugHunt()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Bug hunt (§7): seeded upgrade/invalidate race in Stache")
		if res.Violation == nil {
			fmt.Fprintln(stdout, "  unexpectedly verified clean")
			return errNegative
		}
		fmt.Fprintf(stdout, "  found after %d states:\n%s", res.States, res.Violation)
	}
	return nil
}

// perfRow is one benchmark line of Table 1 or Table 2.
type perfRow struct {
	Benchmark   string
	C           int64 // hand-written state machine, cycles
	Unopt       int64 // Teapot unoptimized
	Opt         int64 // Teapot optimized
	AllocsOpt   int64 // continuation + queue records, optimized
	AllocsUnopt int64 // continuation + queue records, unoptimized
	FaultPct    float64
}

// OverheadUnopt returns the unoptimized overhead in percent.
func (r perfRow) OverheadUnopt() float64 { return 100 * float64(r.Unopt-r.C) / float64(r.C) }

// OverheadOpt returns the optimized overhead in percent.
func (r perfRow) OverheadOpt() float64 { return 100 * float64(r.Opt-r.C) / float64(r.C) }

// perfTable regenerates Table 1 (proto stache: gauss, appbt, shallow, mp3d)
// or Table 2 (proto lcm: adaptive, stencil, unstruct): every workload under
// the protocol's hand-written engine, its optimized compile and its
// unoptimized one.
func perfTable(proto string, workloads []*sim.Workload, nodes int) ([]perfRow, error) {
	entry, _ := protocols.Lookup(proto)
	// Compiled once each; Blocks and Program are set per workload.
	opt, err := entry.Spec(nodes, 1)
	if err != nil {
		return nil, err
	}
	entry.Config.Optimize = false
	unopt, err := entry.Spec(nodes, 1)
	if err != nil {
		return nil, err
	}
	var rows []perfRow
	for _, w := range workloads {
		run := func(flavor string, spec core.RunSpec) (*tempest.Stats, error) {
			spec.Blocks, spec.Program = w.Blocks, w.Trace
			cfg := spec.SimConfig()
			if flavor == "C" {
				cfg.MakeEngine = func(m runtime.Machine) tempest.Engine {
					return entry.HandWritten(spec.Proto, nodes, w.Blocks, m)
				}
			}
			st, err := sim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, flavor, err)
			}
			return st, nil
		}
		c, err := run("C", opt)
		if err != nil {
			return nil, err
		}
		o, err := run("opt", opt)
		if err != nil {
			return nil, err
		}
		u, err := run("unopt", unopt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, perfRow{
			Benchmark: w.Name, C: c.Cycles, Opt: o.Cycles, Unopt: u.Cycles,
			AllocsOpt:   o.Protocol.HeapConts + o.Protocol.QueueRecords,
			AllocsUnopt: u.Protocol.HeapConts + u.Protocol.QueueRecords,
			FaultPct:    100 * float64(c.FaultTime) / float64(c.Cycles*int64(nodes)),
		})
	}
	return rows, nil
}

// verifyRow is one line of Table 3.
type verifyRow struct {
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
// model, built the way `teapot verify` builds it.
func check(proto string, nodes, blocks int, net netmodel.Model, workers int) (*mc.Result, error) {
	spec, err := protocols.Spec(proto, nodes, blocks)
	if err != nil {
		return nil, err
	}
	spec.Net, spec.Workers = net, workers
	return core.Check(spec)
}

// verifyLine runs check and reports it as a Table 3 line labelled label.
func verifyLine(label, proto string, nodes, blocks, reorder, workers int) (verifyRow, error) {
	res, err := check(proto, nodes, blocks, netmodel.Model{Reorder: reorder}, workers)
	if err != nil {
		return verifyRow{}, fmt.Errorf("%s: %w", label, err)
	}
	row := verifyRow{
		Protocol: label, Nodes: nodes, Blocks: blocks, Reorder: reorder,
		Workers: res.Workers, States: res.States, Transitions: res.Transitions,
		Depth: res.MaxDepth, Elapsed: res.Elapsed, VisitedBytes: res.VisitedBytes,
	}
	if res.Violation != nil {
		row.Violation = res.Violation.Kind + ": " + res.Violation.Msg
	}
	return row, nil
}

// table3 regenerates Table 3 with the given checker worker count
// (0 = GOMAXPROCS): Stache, Buffered-write, LCM simple, and LCM MCC at the
// paper's configurations (2 nodes, 1 address, bounded reordering) plus the
// two-address Stache the paper could not complete, and the write-update
// protocol beyond the paper.
func table3(workers int) ([]verifyRow, error) {
	var rows []verifyRow
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
		row, err := verifyLine(m.label, m.proto, 2, m.blocks, m.reorder, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// faultRow is one line of the fault sweep: how the explored state space
// grows with the network fault budget.
type faultRow struct {
	Protocol    string
	Net         string
	States      int
	Transitions int
	Depth       int
	Violation   string
}

// faultSweep checks the fault-tolerant Stache at 2 nodes / 1 block across
// network fault budgets, plus two deliberate edge rows: dup=2, where the
// recorded violation marks the verified envelope of an epoch-less protocol
// (a second duplicate lets a stale ack substitute for a fresh one — only
// per-message sequence numbers could tell them apart), and the base Stache
// under a single drop, whose recorded violation documents why the TIMEOUT
// machinery exists.
func faultSweep(workers int) ([]faultRow, error) {
	var rows []faultRow
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
		row := faultRow{
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

// bugHunt reproduces the §7 story: the model checker finds the seeded
// upgrade/invalidate deadlock and produces an event trace.
func bugHunt() (*mc.Result, error) {
	return check("stache-buggy", 2, 1, netmodel.Model{}, 0)
}

// figureRow summarizes one extracted state machine.
type figureRow struct {
	Figure string
	States int
	Edges  int
	DOT    string
}

// paperFigures regenerates Figures 1, 2, and 4.
func paperFigures() ([]figureRow, error) {
	e, _ := protocols.Lookup("stache")
	a, err := core.Compile(e.Config)
	if err != nil {
		return nil, err
	}
	mk := func(fig, prefix string, transient bool) figureRow {
		m := dot.Extract(a.IR, dot.Options{Prefix: prefix, IncludeTransient: transient})
		return figureRow{Figure: fig, States: len(m.States), Edges: len(m.Edges),
			DOT: dot.Render(m, fig)}
	}
	return []figureRow{
		mk("figure-1-nonhome-idealized", "Cache_", false),
		mk("figure-2-home-idealized", "Home_", false),
		mk("figure-4-home-with-intermediates", "Home_", true),
		mk("full-machine", "", true),
	}, nil
}

// locRow is one line of the §6 code-size comparison.
type locRow struct {
	Protocol  string
	Teapot    int // Teapot source lines
	Generated int // generated Go lines (the paper's generated C)
}

// linesOfCode regenerates the §6 comparison (Stache: 600 Teapot → 1000 C;
// LCM: 1500 → 2300).
func linesOfCode() ([]locRow, error) {
	var rows []locRow
	for _, p := range []struct{ label, name string }{
		{"Stache", "stache"}, {"LCM", "lcm"}, {"Buffered-Write", "bufwrite"},
	} {
		e, _ := protocols.Lookup(p.name)
		a, err := core.Compile(e.Config)
		if err != nil {
			return nil, err
		}
		rows = append(rows, locRow{Protocol: p.label,
			Teapot:    strings.Count(e.Config.Source, "\n"),
			Generated: strings.Count(codegen.Generate(a.IR, "proto"), "\n")})
	}
	return rows, nil
}

// producerConsumerRow compares invalidation (Stache) against write-update
// on the §1 producer-consumer pattern ("invalidating outstanding copies
// forces the consumers to re-request data, which requires up to four
// protocol messages for a small data transfer").
type producerConsumerRow struct {
	Protocol string
	Cycles   int64
	Faults   int64
	Messages int64
}

// producerConsumer runs the comparison at the given machine size.
func producerConsumer(nodes, iters int) ([]producerConsumerRow, error) {
	var rows []producerConsumerRow
	for _, p := range []struct{ label, name string }{
		{"Stache (invalidate)", "stache"}, {"Update (multicast)", "update"},
	} {
		w := sim.ProdCons(sim.WorkloadSpec{Nodes: nodes, Iters: iters, Seed: 77})
		spec, err := protocols.Spec(p.name, nodes, w.Blocks)
		if err != nil {
			return nil, err
		}
		spec.Program = w.Trace
		st, err := core.Simulate(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, producerConsumerRow{p.label, st.Cycles, st.Faults, st.Messages})
	}
	return rows, nil
}

// formatPerf renders Table 1/2 in the paper's layout.
func formatPerf(title string, rows []perfRow) string {
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

// formatVerify renders Table 3.
func formatVerify(rows []verifyRow) string {
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

// formatFaults renders the fault sweep as a table.
func formatFaults(rows []faultRow) string {
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
