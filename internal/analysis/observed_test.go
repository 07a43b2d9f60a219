package analysis_test

import (
	"sort"
	"strings"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
)

func TestExpectedDispatchShape(t *testing.T) {
	p := protocols.MustCompile("stache", true).Protocol
	exp := analysis.ExpectedDispatch(p)
	if len(exp) == 0 {
		t.Fatal("empty dispatch universe for stache")
	}
	if !sort.StringsAreSorted(exp) {
		t.Error("ExpectedDispatch not sorted")
	}
	seen := map[string]bool{}
	for _, pair := range exp {
		if seen[pair] {
			t.Errorf("duplicate pair %s", pair)
		}
		seen[pair] = true
		if !strings.Contains(pair, ".") {
			t.Errorf("pair %q not in State.MESSAGE form", pair)
		}
	}
	// A pair any run of the protocol exercises must be in the universe.
	if !seen["Home_Idle.GET_RO_REQ"] {
		t.Errorf("Home_Idle.GET_RO_REQ missing from %d-pair universe", len(exp))
	}
	// TIMEOUT is a message like any other: base stache declares no TIMEOUT
	// handlers, so no pair may claim one.
	for _, pair := range exp {
		if strings.HasSuffix(pair, ".TIMEOUT") {
			t.Errorf("base stache has no TIMEOUT handlers, universe claims %s", pair)
		}
	}
}

func TestExpectedDispatchFTHasTimeouts(t *testing.T) {
	p := protocols.MustCompile("stache-ft", true).Protocol
	var timeouts int
	for _, pair := range analysis.ExpectedDispatch(p) {
		if strings.HasSuffix(pair, ".TIMEOUT") {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Error("fault-tolerant stache declares TIMEOUT handlers; universe has none")
	}
}

func TestCoverageGaps(t *testing.T) {
	p := protocols.MustCompile("stache", true).Protocol
	exp := analysis.ExpectedDispatch(p)
	full := map[string]uint64{}
	for _, pair := range exp {
		full[pair] = 1
	}
	if gaps := analysis.CoverageGaps(p, full); len(gaps) != 0 {
		t.Errorf("full coverage still gaps: %v", gaps)
	}
	partial := map[string]uint64{}
	for _, pair := range exp[1:] {
		partial[pair] = 1
	}
	if gaps := analysis.CoverageGaps(p, partial); len(gaps) != 1 || gaps[0] != exp[0] {
		t.Errorf("CoverageGaps = %v, want [%s]", gaps, exp[0])
	}
}

// TestExhaustiveCoverageMeetsStatic is the single-source property made
// measurable: on base stache at 3x1 reorder=1 — the smallest shape where
// cache-vs-cache contention makes every handler's trigger dynamically
// reachable except the home-side processor-fault handlers whose fault kind
// the home's own access mode precludes — exhaustive exploration must
// dispatch exactly the statically reachable universe minus that known,
// named remainder.
func TestExhaustiveCoverageMeetsStatic(t *testing.T) {
	p := protocols.MustCompile("stache", true).Protocol
	cov := obs.NewCoverage()
	cfg := mc.Config{
		Proto: p, Support: stache.MustSupport(p),
		Nodes: 3, Blocks: 1, Net: netmodel.Model{Reorder: 1},
		Events: stache.NewEvents(p), CheckCoherence: true,
		Coverage: cov,
	}
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean protocol violated: %v", res.Violation)
	}
	rep := cov.Report(runtime.ObsNames(p))
	gaps := analysis.CoverageGaps(p, rep.Dispatch)
	// The documented remainder: in Home_Idle/Home_RS the home holds at
	// least read access (RD_FAULT cannot fire; WR_FAULT only from invalid),
	// and in Home_Excl the home's copy is invalid (WR_RO_FAULT needs a
	// read-only copy). Defensive handlers exist for all three fault kinds
	// in each state; the precluded ones are the allowed gap set.
	allowed := map[string]bool{
		"Home_Excl.WR_RO_FAULT": true,
		"Home_Idle.RD_FAULT":    true,
		"Home_Idle.WR_FAULT":    true,
		"Home_Idle.WR_RO_FAULT": true,
		"Home_RS.RD_FAULT":      true,
		"Home_RS.WR_FAULT":      true,
	}
	for _, g := range gaps {
		if !allowed[g] {
			t.Errorf("statically reachable pair %s never dispatched by exhaustive mc", g)
		}
	}
}
