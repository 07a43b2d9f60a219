package main

import (
	_ "embed"
	"encoding/json"
)

// expected.json holds the recorded answers the passes are checked against:
// deterministic counts of the full shapes, and of the seeded workloads at
// defaultSeed. A shape that has no entry (the tests' small shapes, another
// seed) is checked for repeating exactly from pass to pass instead.
//
//go:embed expected.json
var expectedJSON []byte

type compileCounts struct {
	Tokens       int `json:"tokens"`
	IRInstrs     int `json:"ir_instrs"`
	Sites        int `json:"sites"`
	StaticSites  int `json:"static_sites"`
	HeapSites    int `json:"heap_sites"`
	CodegenLines int `json:"codegen_lines"`
	MurphiLines  int `json:"murphi_lines"`
	Findings     int `json:"findings"` // actionable vet findings; 0 unless the source is a seeded-bug fixture
}

type simCounts struct {
	Accesses int64 `json:"accesses"`
	Faults   int64 `json:"faults"`
	Messages int64 `json:"messages"`
	Cycles   int64 `json:"cycles"`
}

type mcCounts struct {
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	Depth       int `json:"depth"`
}

type litmusCounts struct {
	MCStates int `json:"mc_states"`
	MC       int `json:"mc_outcomes"`
	Sim      int `json:"sim_outcomes"`
	Fuzz     int `json:"fuzz_outcomes"`
}

type expectedCounts struct {
	Compile map[string]compileCounts `json:"compile"`
	Sim     map[string]simCounts     `json:"sim"`
	Verify  map[string]mcCounts      `json:"verify"`
	Litmus  map[string]litmusCounts  `json:"litmus"`
}

var expected = func() expectedCounts {
	var e expectedCounts
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic("benchmarks: expected.json: " + err.Error())
	}
	return e
}()

// checkRecorded compares got with the recorded answer when the shape has
// one (useRecorded), and otherwise with what the first pass produced, which
// it remembers in first.
func checkRecorded[T comparable](c *checks, what string, got T, recorded map[string]T, useRecorded bool, first map[string]T) {
	if useRecorded {
		want, ok := recorded[what]
		c.ok(ok && got == want, "%s: got %+v, recorded %+v (recorded at all: %v)", what, got, want, ok)
		return
	}
	want, seen := first[what]
	if !seen {
		first[what] = got
	}
	c.ok(!seen || got == want, "%s: got %+v, first pass had %+v", what, got, want)
}
