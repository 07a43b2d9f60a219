package protocols_test

import (
	"strings"
	"testing"

	"teapot/internal/protocols"
)

// TestSpecWiresEveryRunnableEntry: Spec accepts exactly the entries that
// carry wiring, hands back a complete spec for each, and refuses the
// compile-only fixtures and unknown names alike, listing what it accepts.
func TestSpecWiresEveryRunnableEntry(t *testing.T) {
	runnable := strings.Join(protocols.RunnableNames(), ", ")
	for _, name := range append(protocols.Names(), "no-such-proto") {
		e, _ := protocols.Lookup(name)
		spec, err := protocols.Spec(name, 2, 1)
		if !e.Runnable() {
			if err == nil || !strings.Contains(err.Error(), "(runnable: "+runnable+")") {
				t.Errorf("%s: err = %v, want a refusal listing %s", name, err, runnable)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Proto == nil || spec.Support == nil || spec.Events == nil || spec.Nodes != 2 || spec.Blocks != 1 {
			t.Errorf("%s: incomplete spec %+v", name, spec)
		}
		if want := !strings.HasPrefix(name, "lcm"); spec.CheckCoherence != want {
			t.Errorf("%s: CheckCoherence = %v, want %v", name, spec.CheckCoherence, want)
		}
		if (e.HandWritten != nil) != (name == "stache" || name == "lcm") {
			t.Errorf("%s: hand-written engine present = %v", name, e.HandWritten != nil)
		}
	}
}

// TestSpecHonoursOptimize: Entry.Spec compiles what Entry.Config says, so
// the unoptimized build is the same entry with the flag flipped.
func TestSpecHonoursOptimize(t *testing.T) {
	e, _ := protocols.Lookup("stache")
	for _, optimize := range []bool{true, false} {
		e.Config.Optimize = optimize
		spec, err := e.Spec(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Proto.Opts.ConstCont; got != optimize {
			t.Errorf("Optimize=%v compiled with ConstCont=%v", optimize, got)
		}
	}
}

// TestSpecRefusesBadShape: a node id past bit 63 would never enter a sharer
// mask, and a machine needs a node and a block.
func TestSpecRefusesBadShape(t *testing.T) {
	for _, c := range []struct {
		nodes, blocks int
		want          string
	}{
		{0, 1, "-nodes 0: want 1..64"},
		{-1, 1, "-nodes -1: want 1..64"},
		{65, 1, "-nodes 65: want 1..64"},
		{2, 0, "-blocks 0: want at least 1"},
		{2, -1, "-blocks -1: want at least 1"},
	} {
		if _, err := protocols.Spec("stache", c.nodes, c.blocks); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Spec(stache, %d, %d): err = %v, want %q", c.nodes, c.blocks, err, c.want)
		}
	}
	if _, err := protocols.Spec("stache", 64, 1); err != nil {
		t.Errorf("64 nodes: %v", err)
	}
}

// TestOracleProfiles pins the judgeability boundary: a runnable protocol has
// an oracle profile exactly when the checker judges its coherence (LCM,
// whose phases are deliberately inconsistent, has neither), every profile
// includes the access-control invariant, and a refusal lists the names that
// have one. A table row that sets CheckCoherence and forgets the profile —
// as stache-asym's did while the profiles were a switch in internal/fuzz —
// fails here.
func TestOracleProfiles(t *testing.T) {
	var judgeable []string
	for _, e := range protocols.All() {
		if e.Oracle != nil {
			judgeable = append(judgeable, e.Name)
		}
		if want := e.Runnable() && e.CheckCoherence; (e.Oracle != nil) != want {
			t.Errorf("%s: runnable %v, CheckCoherence %v, but oracle profile present: %v",
				e.Name, e.Runnable(), e.CheckCoherence, e.Oracle != nil)
		}
		prof, err := protocols.OracleProfile(e.Name)
		if (err == nil) != (e.Oracle != nil) {
			t.Errorf("%s: OracleProfile err = %v with profile present: %v", e.Name, err, e.Oracle != nil)
		}
		if err == nil && !prof.Inv.SWMR {
			t.Errorf("%s: profile %+v does not judge SWMR", e.Name, prof)
		}
	}
	want := "(judgeable: " + strings.Join(judgeable, ", ") + ")"
	for _, name := range []string{"lcm", "lcm-mcc", "stache-cas", "no-such-proto"} {
		if _, err := protocols.OracleProfile(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a refusal listing %s", name, err, want)
		}
	}
	if !strings.Contains(want, "stache-asym") {
		t.Errorf("stache-asym is not judgeable: %s", want)
	}
}
