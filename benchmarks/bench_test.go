package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

var testEnv = env{seed: defaultSeed, root: "..", small: true}

// Every workload, at the small shapes, must pass its own checks and emit
// every metric BENCHMARK.json names with a finite value, and its span file
// must be well formed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			fp := newFingerprint("test", testEnv, 0)
			res, err := runUntraced(def, testEnv, 0, fp)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			res, err = runTraced(def, testEnv, 0, fp)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			checkSpans(t, def.name, res.Spans)
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if res.Ops == 0 || res.OpsFailed != 0 {
		t.Errorf("ops %d, failed %d: %v", res.Ops, res.OpsFailed, res.Failures)
	}
	if res.Passes < 1 {
		t.Errorf("passes = %d", res.Passes)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("metric %s = %v %q, want a finite number of %q", d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	roots := 0
	for i, s := range spans {
		if s.ID != i || s.Workload != workload || s.EndNS < s.StartNS {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			roots++
			if s.Name != "workload:"+workload {
				t.Errorf("root span is %q", s.Name)
			}
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d has parent %d, which does not precede it", i, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d %q [%d,%d] lies outside its parent %q [%d,%d]", i, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
	for i, ns := range selfNS(spans) {
		if ns < 0 {
			t.Errorf("span %d %q has self time %d ns", i, spans[i].Name, ns)
		}
	}
}

// BENCHMARK.json is read by the driver, the tables in metrics.go and run.go
// by the program; they must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmarks/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"benchmarks"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if w := b.Workloads[i]; w.Name != d.name || w.Why != d.why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q %q, want %q %q in at most 200 characters", i, w.Name, w.Why, d.name, d.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// The summary line is what the driver parses.
func TestSummaryLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "verify_small", "--seed", "7", "--seconds", "0", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("summary line %s", lines[len(lines)-1])
	}
	var ms map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("%d metrics in the summary line, want %d", len(ms), len(endToEnd))
	}
	for _, d := range endToEnd {
		if ms[d.Name].Unit != d.Unit || ms[d.Name].Value <= 0 {
			t.Errorf("%s: %+v", d.Name, ms[d.Name])
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "verify_small", "--trace", "2"},
		{"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}

// A failing check must surface in the counts and in -report's exit code.
func TestFailedCheckIsReported(t *testing.T) {
	var c checks
	c.ok(true, "fine")
	c.ok(false, "states got %d want %d", 1, 2)
	if c.ops != 2 || c.failed != 1 || len(c.msgs) != 1 || c.msgs[0] != "states got 1 want 2" {
		t.Fatalf("%+v", c)
	}
	path := t.TempDir() + "/results.json"
	r := &result{Workload: "verify_small", Ops: c.ops, OpsFailed: c.failed, Failures: c.msgs, Metrics: metrics{}}
	if err := mergeResult(path, r); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-report", path}, &stdout, &stderr); code != 1 {
		t.Errorf("-report exit %d, want 1; stderr %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "FAILED states got 1 want 2") {
		t.Errorf("report does not show the failure:\n%s", stdout.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same data.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 35, 52.5},
	} {
		med, q1, q3 := quartiles(c.xs)
		if med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// The same seed must give the same inputs, and another seed other ones.
func TestSeedMakesInputs(t *testing.T) {
	rows := func(seed uint64) []simRow {
		w := &simWL{env: env{seed: seed, root: "..", small: true}}
		if err := w.setup(nil, &checks{}); err != nil {
			t.Fatal(err)
		}
		return w.rows
	}
	a, b, c := rows(1), rows(1), rows(2)
	same := func(x, y []simRow) bool {
		for i := range x {
			if !reflect.DeepEqual(x[i].w.Trace.Ops, y[i].w.Trace.Ops) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("seed 1 gave two different sets of traces")
	}
	if same(a, c) {
		t.Error("seeds 1 and 2 gave the same traces")
	}
}

func TestFastestQuarter(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3.5}, 3.5},
		{[]float64{4, 3, 9, 5}, 3},                     // fewer than eight: the fastest one
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 1.5},       // the fastest two of eight
		{[]float64{1, 1, 1, 50, 60, 70, 80, 90, 2}, 1}, // a burst of slow passes does not enter
	} {
		if got := fastestQuarter(c.xs); got != c.want {
			t.Errorf("fastestQuarter(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
