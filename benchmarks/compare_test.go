package main

import (
	"bytes"
	"strings"
	"testing"
)

// timedValue is a wall_s-like metric: 10 % bound, the given quartiles.
func timedValue(med, q1, q3 float64) value {
	return value{Value: med, Unit: "s", Median: med, Q1: q1, Q3: q3, N: 6, Better: "lower", Bound: 0.10}
}

func TestCompareMetric(t *testing.T) {
	exact := func(v float64) value { return value{Value: v, Unit: "count", N: 1, Better: "lower", Exact: true} }
	setup := func(v float64) value {
		return value{Value: v, Unit: "s", Median: v, Q1: v, Q3: v, N: 5, Better: "lower", Bound: 0.25, Floor: 0.05}
	}
	rate := value{Value: 100, Unit: "1/s", Median: 100, Q1: 99, Q3: 101, N: 6, Better: "higher", Bound: 0.10}
	slower := rate
	slower.Value, slower.Q1, slower.Q3 = 80, 79, 81
	for _, c := range []struct {
		name     string
		old, new value
		want     string
	}{
		{"exact same", exact(170738), exact(170738), verdictSame},
		{"exact differs by one", exact(170738), exact(170739), verdictMismatch},
		{"within bound", timedValue(1.00, 0.99, 1.01), timedValue(1.05, 1.04, 1.06), verdictOK},
		{"beyond bound", timedValue(1.00, 0.99, 1.01), timedValue(1.20, 1.19, 1.21), verdictRegression},
		{"better beyond bound", timedValue(1.00, 0.99, 1.01), timedValue(0.80, 0.79, 0.81), verdictImproved},
		{"spread wider than bound", timedValue(1.00, 0.90, 1.10), timedValue(1.05, 1.04, 1.06), verdictUnresolved},
		{"worse, but by less than the spread", timedValue(1.00, 0.85, 1.15), timedValue(1.20, 1.19, 1.21), verdictUnresolved},
		{"worse by more than a wide spread", timedValue(1.00, 0.90, 1.10), timedValue(1.50, 1.49, 1.51), verdictRegression},
		{"higher is better, lower is a regression", rate, slower, verdictRegression},
		{"set-up doubles but stays under the floor", setup(0.004), setup(0.008), verdictOK},
		{"set-up beyond bound and floor", setup(0.5), setup(0.7), verdictRegression},
		{"per-layer timing has no bound", value{Value: 1, Unit: "ms", Better: "lower"}, value{Value: 3, Unit: "ms", Better: "lower"}, verdictInfo},
	} {
		if got := compareMetric(c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		path := dir + "/" + name
		if err := mergeResult(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := result{
		Workload: "verify_full", Passes: 4, Ops: 15,
		Fingerprint: fingerprint{GOMAXPROCS: 2, Seed: 1, Seconds: 15},
		Metrics:     metrics{"wall_s": timedValue(3.5, 3.45, 3.55)},
	}
	with := func(change func(*result)) result {
		r := base
		r.Metrics = metrics{"wall_s": base.Metrics["wall_s"]}
		change(&r)
		return r
	}
	old := write("old.json", base)
	for _, c := range []struct {
		name     string
		new      result
		want     int
		mentions string
	}{
		{"same", base, 0, "0 regressions or mismatches, 0 unresolved"},
		{"slower", with(func(r *result) { r.Metrics["wall_s"] = timedValue(4.5, 4.45, 4.55) }), 1, "REGRESSION"},
		{"noisy", with(func(r *result) { r.Metrics["wall_s"] = timedValue(3.6, 3.0, 4.2) }), 0, "1 unresolved"},
		{"more failures", with(func(r *result) { r.OpsFailed = 1 }), 1, "more checks fail"},
		{"one processor", with(func(r *result) { r.Fingerprint.GOMAXPROCS = 1 }), 2, "GOMAXPROCS differs"},
		{"shorter run", with(func(r *result) { r.Fingerprint.Seconds = 5; r.Passes = 2 }), 2, "pass counts"},
		{"other seed", with(func(r *result) { r.Fingerprint.Seed = 2 }), 2, "seed differs"},
		{"traced against untraced", with(func(r *result) { r.Traced = true }), 2, "traced"},
	} {
		var stdout, stderr bytes.Buffer
		got := run([]string{"-compare", old, write(c.name+".json", c.new)}, &stdout, &stderr)
		if got != c.want || !strings.Contains(stdout.String()+stderr.String(), c.mentions) {
			t.Errorf("%s: exit %d, want %d and a mention of %q\n%s%s", c.name, got, c.want, c.mentions, stdout.String(), stderr.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if got := compareFiles(old, write("empty.json", result{Workload: "verify_sym"}), &stdout, &stderr); got != 1 || !strings.Contains(stdout.String(), "missing") {
		t.Errorf("a workload missing from the new file: exit %d\n%s", got, stdout.String())
	}
}
