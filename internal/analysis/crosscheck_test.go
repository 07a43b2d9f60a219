package analysis_test

import (
	"strings"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/mc"
	"teapot/internal/protocols"
)

// TestVetAgreesWithModelChecker is the acceptance test for the suite: on
// the seeded-bug Stache variant, the static defer-deadlock finding and the
// model checker's counterexample must name the same state and message.
// The vet report costs a single compile; the checker independently
// confirms the hazard with a concrete interleaving ending in a deadlock
// where the flagged state is holding the flagged message in its queue.
func TestVetAgreesWithModelChecker(t *testing.T) {
	spec, err := protocols.Spec("stache-buggy", 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	const state, msg = "Cache_RO_To_RW", "PUT_NO_DATA_REQ"

	ds := analysis.Analyze(spec.Proto).ByCheck("defer-deadlock")
	if len(ds) != 1 {
		t.Fatalf("defer-deadlock findings = %v", ds)
	}
	for _, want := range []string{state, msg} {
		if !strings.Contains(ds[0].Msg, want) {
			t.Fatalf("static finding %q does not name %q", ds[0].Msg, want)
		}
	}

	res, err := mc.Check(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("model checker found no violation in the seeded-bug protocol")
	}
	if res.Violation.Kind != "deadlock" {
		t.Fatalf("violation kind = %q, want deadlock", res.Violation.Kind)
	}
	trace := res.Violation.String()
	for _, want := range []string{state, msg} {
		if !strings.Contains(trace, want) {
			t.Errorf("counterexample does not mention %q (static finding does):\n%s", want, trace)
		}
	}
}
