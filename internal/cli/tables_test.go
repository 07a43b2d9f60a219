package cli

import (
	"reflect"
	"strings"
	"testing"

	"teapot/internal/sim"
)

func TestTable1Shape(t *testing.T) {
	rows, err := perfTable("stache", sim.Table1Workloads(8, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OverheadOpt() < 0 || r.OverheadOpt() > r.OverheadUnopt()+0.01 {
			t.Errorf("%s: overheads out of order: opt %.1f%% unopt %.1f%%",
				r.Benchmark, r.OverheadOpt(), r.OverheadUnopt())
		}
		if r.OverheadUnopt() > 30 {
			t.Errorf("%s: unopt overhead %.1f%% implausible", r.Benchmark, r.OverheadUnopt())
		}
		if r.AllocsOpt >= r.AllocsUnopt {
			t.Errorf("%s: opt allocs %d not below unopt %d", r.Benchmark, r.AllocsOpt, r.AllocsUnopt)
		}
	}
	t.Logf("\n%s", formatPerf("Table 1", rows))
}

func TestTable2Shape(t *testing.T) {
	rows, err := perfTable("lcm", sim.Table2Workloads(8, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OverheadOpt() > r.OverheadUnopt()+0.01 {
			t.Errorf("%s: opt slower than unopt", r.Benchmark)
		}
	}
	t.Logf("\n%s", formatPerf("Table 2", rows))
}

// TestTable3AllVerified pins Table 3 and the fault sweep exactly: these
// are the counts EXPERIMENTS.md records and benchmarks/expected.json
// checks on the verify_small workload.
func TestTable3AllVerified(t *testing.T) {
	rows, err := table3(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []verifyRow{
		{Protocol: "Stache", Nodes: 2, Blocks: 1, Reorder: 1, States: 219, Transitions: 402, Depth: 20},
		{Protocol: "Stache (2 addresses)", Nodes: 2, Blocks: 2, Reorder: 0, States: 3138, Transitions: 6598, Depth: 28},
		{Protocol: "Buffered-Write", Nodes: 2, Blocks: 1, Reorder: 1, States: 220, Transitions: 535, Depth: 15},
		{Protocol: "LCM Simple", Nodes: 2, Blocks: 1, Reorder: 1, States: 399, Transitions: 964, Depth: 19},
		{Protocol: "LCM MCC", Nodes: 2, Blocks: 1, Reorder: 1, States: 399, Transitions: 964, Depth: 19},
		{Protocol: "Update (extra)", Nodes: 2, Blocks: 1, Reorder: 1, States: 23, Transitions: 46, Depth: 9},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Workers < 1 {
			t.Errorf("%s: workers = %d", r.Protocol, r.Workers)
		}
		if r.VisitedBytes <= 0 {
			t.Errorf("%s: visited bytes = %d", r.Protocol, r.VisitedBytes)
		}
		// The columns that depend on the machine, checked above.
		r.Workers, r.Elapsed, r.VisitedBytes = 0, 0, 0
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
	t.Logf("\n%s", formatVerify(rows))

	faults, err := faultSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	wantFaults := []faultRow{
		{"Stache-FT", "none", 105, 186, 15, ""},
		{"Stache-FT", "reorder=1", 235, 434, 20, ""},
		{"Stache-FT", "drop=1", 554, 1018, 23, ""},
		{"Stache-FT", "dup=1", 952, 1919, 22, ""},
		{"Stache-FT", "drop=1,dup=1", 4022, 9280, 25, ""},
		{"Stache-FT", "drop=2,dup=1", 8021, 21108, 27, ""},
		{"Stache-FT", "dup=2", 2599, 5719, 12, "invariant"},
		{"Stache", "drop=1", 14, 13, 2, "deadlock"},
	}
	if !reflect.DeepEqual(faults, wantFaults) {
		t.Errorf("fault sweep:\n%swant:\n%s", formatFaults(faults), formatFaults(wantFaults))
	}
}

func TestBugHunt(t *testing.T) {
	res, err := bugHunt()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != "deadlock" {
		t.Fatalf("seeded bug not found: %v", res.Violation)
	}
}

func TestFigures(t *testing.T) {
	figs, err := paperFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("figures = %d", len(figs))
	}
	if figs[0].States != 3 || figs[1].States != 3 {
		t.Errorf("idealized machines: %d / %d states, want 3 / 3",
			figs[0].States, figs[1].States)
	}
	if figs[2].States <= figs[1].States {
		t.Errorf("figure 4 (%d states) should exceed figure 2 (%d)",
			figs[2].States, figs[1].States)
	}
	for _, f := range figs {
		if !strings.Contains(f.DOT, "digraph") {
			t.Errorf("%s: bad DOT", f.Figure)
		}
	}
}

func TestLinesOfCode(t *testing.T) {
	rows, err := linesOfCode()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Generated <= r.Teapot {
			t.Errorf("%s: generated (%d) should exceed Teapot source (%d)",
				r.Protocol, r.Generated, r.Teapot)
		}
		t.Logf("%s: %d Teapot -> %d generated Go", r.Protocol, r.Teapot, r.Generated)
	}
}

// TestProducerConsumerComparison reproduces §1's motivation: on the
// broadcast-heavy gauss pattern the write-update protocol needs fewer
// messages and faults than invalidation.
func TestProducerConsumerComparison(t *testing.T) {
	rows, err := producerConsumer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st, up := rows[0], rows[1]
	if up.Faults >= st.Faults {
		t.Errorf("update faults (%d) should be below invalidation's (%d)", up.Faults, st.Faults)
	}
	t.Logf("%-22s cycles=%-8d faults=%-5d messages=%d", st.Protocol, st.Cycles, st.Faults, st.Messages)
	t.Logf("%-22s cycles=%-8d faults=%-5d messages=%d", up.Protocol, up.Cycles, up.Faults, up.Messages)
}

// TestReorderSweep verifies Stache across reordering bounds (the paper:
// "unrestricted reordering led to impractical simulation sizes"; it capped
// at 1 — we sweep 0..2).
func TestReorderSweep(t *testing.T) {
	var rows []verifyRow
	for reorder := 0; reorder <= 2; reorder++ {
		row, err := verifyLine("Stache", "stache", 2, 1, reorder, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Violation != "" {
			t.Errorf("reorder=%d: %s", r.Reorder, r.Violation)
		}
		if i > 0 && r.States < rows[i-1].States {
			t.Errorf("state count should not shrink with more reordering: %d -> %d",
				rows[i-1].States, r.States)
		}
	}
}
