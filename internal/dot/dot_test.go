package dot_test

import (
	"strings"
	"testing"

	"teapot/internal/dot"
	"teapot/internal/protocols"
)

func TestFigure1NonHomeIdealized(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	m := dot.Extract(a.IR, dot.Options{Prefix: "Cache_", IncludeTransient: false})
	// Figure 1's idealized non-home machine: Invalid, Readable, Writable.
	want := map[string]bool{"Cache_Inv": true, "Cache_RO": true, "Cache_RW": true}
	for _, s := range m.States {
		if !want[s] {
			t.Errorf("unexpected state %q in idealized non-home machine", s)
		}
		delete(want, s)
	}
	for s := range want {
		t.Errorf("missing state %q", s)
	}
	// Read fault takes Invalid to Readable (through the contracted
	// transient).
	found := false
	for _, e := range m.Edges {
		if e.From == "Cache_Inv" && e.To == "Cache_RO" && e.Label == "RD_FAULT" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing Inv --RD_FAULT--> RO edge; edges: %v", m.Edges)
	}
}

func TestFigure2HomeIdealized(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	m := dot.Extract(a.IR, dot.Options{Prefix: "Home_", IncludeTransient: false})
	// Figure 2: Idle, ReadShared, Exclusive.
	if len(m.States) != 3 {
		t.Errorf("idealized home machine has %d states, want 3 (%v)", len(m.States), m.States)
	}
}

func TestFigure4HomeWithIntermediates(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	ideal := len(dot.Extract(a.IR, dot.Options{Prefix: "Home_", IncludeTransient: false}).States)
	full := len(dot.Extract(a.IR, dot.Options{Prefix: "Home_", IncludeTransient: true}).States)
	if full <= ideal {
		t.Errorf("intermediate states did not grow the machine: %d vs %d", full, ideal)
	}
	t.Logf("home machine: %d conceptual states -> %d with intermediates (paper: 3 -> 8)", ideal, full)
}

func TestRenderDOT(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	m := dot.Extract(a.IR, dot.Options{Prefix: "Cache_", IncludeTransient: true})
	out := dot.Render(m, "stache-cache")
	for _, want := range []string{"digraph", "rankdir=LR", "Cache_Inv", "->", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if out != dot.Render(m, "stache-cache") {
		t.Error("rendering not deterministic")
	}
}
