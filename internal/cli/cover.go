package cli

import (
	"fmt"
	"io"
	"strings"

	"teapot/internal/analysis"
	"teapot/internal/manifest"
	"teapot/internal/obs"
	"teapot/internal/protocols"
)

// cmdCover compares coverage between run manifests (the -report artifacts of
// verify, sim, fuzz and litmus) and cross-checks dynamic coverage against
// static reachability.
//
//	teapot cover mc.json fuzz.json        # diff: what did fuzz miss vs mc?
//	teapot cover -static mc.json          # dynamic vs static dispatch universe
//	teapot cover -static -allow Home_Idle.NACK mc.json
//
// Diff mode treats the first manifest as the reference (typically an
// exhaustive verify run — 100% of what the fault budget reaches) and names
// every (state, message) pair, transition, and fault action the second run
// missed, by exact key. It is informational: the verdict is always
// positive.
//
// Static mode compiles the manifest's protocol and compares its observed
// dispatch set against internal/analysis reachability: a statically
// reachable handler that even this run never entered is the negative
// verdict unless listed in -allow. On an exhaustive checker manifest this
// is the single-source property made measurable — one protocol text, and
// the static and dynamic views of its surface must agree.
func cmdCover(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("cover", stderr, "ref.json other.json | -static [-allow pairs] run.json")
	var (
		static = fs.Bool("static", false, "cross-check one manifest's dispatch coverage against static reachability")
		allow  = fs.String("allow", "", "comma-separated dispatch pairs (State.MESSAGE) excused from the -static check, each with a known reason")
	)
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	if *static {
		if fs.NArg() != 1 {
			return fmt.Errorf("-static wants exactly one manifest")
		}
		return coverStatic(stdout, fs.Arg(0), *allow)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two manifests to diff (or -static with one)")
	}

	// What other missed relative to ref, and the reverse, since a fuzz run
	// can wander where a budgeted checker cannot.
	ref, err := manifest.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	other, err := manifest.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	if ref.Protocol != other.Protocol {
		fmt.Fprintf(stderr, "teapot cover: warning: comparing different protocols (%s vs %s)\n", ref.Protocol, other.Protocol)
	}
	rc, oc := coverageOf(ref), coverageOf(other)
	fmt.Fprintf(stdout, "ref:   %s (%s, %d dispatch pairs)\n", fs.Arg(0), ref.Shape(), len(rc.Dispatch))
	fmt.Fprintf(stdout, "other: %s (%s, %d dispatch pairs)\n", fs.Arg(1), other.Shape(), len(oc.Dispatch))
	total := 0
	for _, sec := range []struct {
		what       string
		ref, other map[string]uint64
	}{
		{"dispatch pairs", rc.Dispatch, oc.Dispatch},
		{"transitions", rc.Transitions, oc.Transitions},
		{"fault actions", rc.Faults, oc.Faults},
	} {
		total += coverSection(stdout, sec.what+" missed by other", manifest.MissingKeys(sec.ref, sec.other))
		total += coverSection(stdout, sec.what+" only in other", manifest.MissingKeys(sec.other, sec.ref))
	}
	if total == 0 {
		fmt.Fprintln(stdout, "coverage identical: both runs exercised the same protocol surface")
	}
	return nil
}

// coverageOf returns the manifest's coverage block, empty if it has none.
func coverageOf(m *manifest.Manifest) obs.CoverageReport {
	if m.Coverage == nil {
		return obs.CoverageReport{}
	}
	return *m.Coverage
}

func coverSection(w io.Writer, title string, keys []string) int {
	if len(keys) > 0 {
		fmt.Fprintf(w, "%s (%d):\n", title, len(keys))
	}
	for _, k := range keys {
		fmt.Fprintf(w, "  %s\n", k)
	}
	return len(keys)
}

// coverStatic compares a manifest's observed dispatch set against the
// compiled protocol's statically reachable dispatch universe.
func coverStatic(stdout io.Writer, path, allow string) error {
	m, err := manifest.Load(path)
	if err != nil {
		return err
	}
	if m.Coverage == nil {
		return fmt.Errorf("manifest carries no coverage block")
	}
	spec, err := protocols.Spec(m.Protocol, m.Nodes, m.Blocks)
	if err != nil {
		return err
	}
	allowed := map[string]bool{}
	for _, p := range strings.Split(allow, ",") {
		allowed[strings.TrimSpace(p)] = true
	}
	expected := analysis.ExpectedDispatch(spec.Proto)
	gaps := analysis.CoverageGaps(spec.Proto, m.Coverage.Dispatch)
	fmt.Fprintf(stdout, "%s: %d/%d statically reachable dispatch pairs covered\n",
		m.Shape(), len(expected)-len(gaps), len(expected))
	var bad []string
	for _, g := range gaps {
		if allowed[g] {
			fmt.Fprintf(stdout, "  allowed gap: %s\n", g)
		} else {
			bad = append(bad, g)
		}
	}
	// The observed-but-not-expected direction is informational: DEFAULT
	// dispatches (defer/nack/drop policies) enter handlers the static
	// explicit-handler universe deliberately excludes.
	universe := make(map[string]uint64, len(expected))
	for _, k := range expected {
		universe[k] = 1
	}
	if extra := manifest.MissingKeys(m.Coverage.Dispatch, universe); len(extra) > 0 {
		fmt.Fprintf(stdout, "  observed beyond the explicit-handler universe (DEFAULT dispatches): %d\n", len(extra))
	}
	if len(bad) > 0 {
		fmt.Fprintf(stdout, "UNCOVERED: %d statically reachable pair(s) this run never dispatched:\n", len(bad))
		for _, g := range bad {
			fmt.Fprintf(stdout, "  %s\n", g)
		}
		return errNegative
	}
	fmt.Fprintln(stdout, "static dispatch universe saturated (modulo allowed gaps)")
	return nil
}
