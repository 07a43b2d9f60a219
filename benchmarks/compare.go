package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare on one metric.
const (
	verdictSame       = "same"       // exact metric, identical
	verdictMismatch   = "MISMATCH"   // exact metric, different: fails
	verdictOK         = "ok"         // within its bound
	verdictImproved   = "improved"   // better by more than its bound and the spread
	verdictRegression = "REGRESSION" // worse by more than its bound and the spread: fails
	verdictUnresolved = "unresolved" // the quartile spread exceeds the bound, so "unchanged" cannot be claimed
	verdictInfo       = "-"          // timed per-layer metric: no bound, shown for attribution
)

// worsening is the change from old to new as a share of old, positive when
// new is worse.
func worsening(old, new value) float64 {
	d := new.Value - old.Value
	if old.Better == "higher" {
		d = -d
	}
	if d == 0 {
		return 0
	}
	if old.Value == 0 {
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(old.Value)
}

func compareMetric(old, new value) string {
	switch {
	case old.Exact:
		if old.Value == new.Value {
			return verdictSame
		}
		return verdictMismatch
	case old.Bound == 0:
		return verdictInfo
	case math.Abs(new.Value-old.Value) < old.Floor:
		return verdictOK
	}
	worse := worsening(old, new)
	spread := math.Max(old.spread(), new.spread())
	switch {
	case worse > old.Bound && worse > spread:
		return verdictRegression
	case spread > old.Bound:
		return verdictUnresolved
	case -worse > old.Bound && -worse > spread:
		return verdictImproved
	}
	return verdictOK
}

// comparableRuns refuses pairs that were not measured the same way.
func comparableRuns(old, new *result) error {
	a, b := old.Fingerprint, new.Fingerprint
	switch {
	case old.Traced != new.Traced:
		return fmt.Errorf("one run is traced and the other is not")
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d and %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("run length differs, and with it the pass counts: %g s (%d passes) and %g s (%d passes)",
			a.Seconds, old.Passes, b.Seconds, new.Passes)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed differs: %d and %d", a.Seed, b.Seed)
	case a.Small != b.Small:
		return fmt.Errorf("one run used the tests' small shapes")
	}
	return nil
}

// compareFiles prints old against new, metric by metric. It returns 0 when
// nothing got worse, 1 on a regression, an exact-metric mismatch or a rise
// in failed checks, and 2 when the files cannot be compared.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	olds, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	news, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, old := range sortedResults(olds) {
		if new, ok := news[old.Workload]; ok {
			if err := comparableRuns(old, new); err != nil {
				fmt.Fprintf(stderr, "%s: refusing to compare: %v\n", old.Workload, err)
				return 2
			}
		}
	}

	bad, unresolved := 0, 0
	for _, old := range sortedResults(olds) {
		new, ok := news[old.Workload]
		if !ok {
			fmt.Fprintf(stdout, "== %s: missing from %s\n", old.Workload, newPath)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "== %s  passes %d -> %d  ops_failed/ops %d/%d -> %d/%d\n",
			old.Workload, old.Passes, new.Passes, old.OpsFailed, old.Ops, new.OpsFailed, new.Ops)
		if float64(new.OpsFailed)*float64(old.Ops) > float64(old.OpsFailed)*float64(new.Ops) {
			fmt.Fprintf(stdout, "   REGRESSION more checks fail\n")
			bad++
		}
		defs := endToEnd
		if old.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			ov, ok1 := old.Metrics[d.Name]
			nv, ok2 := new.Metrics[d.Name]
			if !ok1 || !ok2 {
				if ok1 != ok2 {
					fmt.Fprintf(stdout, "   %-30s present in one file only\n", d.Name)
					bad++
				}
				continue
			}
			if ov.Value == 0 && nv.Value == 0 {
				continue // a layer this workload does not pass through
			}
			verdict := compareMetric(ov, nv)
			switch verdict {
			case verdictMismatch, verdictRegression:
				bad++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(stdout, "   %-30s %14.6g -> %14.6g %-6s %+7.2f%%  %s\n",
				d.Name, ov.Value, nv.Value, ov.Unit, 100*signedChange(ov, nv), verdict)
		}
	}
	fmt.Fprintf(stdout, "%d regressions or mismatches, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}

// signedChange is new over old minus one, the way a reader expects to see
// a change printed (negative = smaller).
func signedChange(old, new value) float64 {
	if old.Value == 0 {
		return 0
	}
	return new.Value/old.Value - 1
}
