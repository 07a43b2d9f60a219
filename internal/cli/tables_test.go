package cli

import (
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

// TestTable3AllVerified: every Table 3 machine verifies. The counts are
// EXPERIMENTS.md's checked block of `teapot tables -table 3`, which also
// holds the fault sweep.
func TestTable3AllVerified(t *testing.T) {
	rows, err := table3(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Violation != "" || r.States == 0 || r.Workers < 1 || r.VisitedBytes <= 0 {
			t.Errorf("%s: %+v", r.Protocol, r)
		}
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
