// Command benchmarks is the repository's benchmark: six workloads over the
// compiler, the simulator, the model checker and the litmus harness, each
// run in a process of its own. See README.md in this directory.
//
//	benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1> [-out file]
//	benchmarks -report <file>
//	benchmarks -compare <old> <new>
//
// It runs from the repository root (run.sh sees to that). The last line of
// a workload run's standard output is one JSON object with the run's
// metrics: the end-to-end ones untraced, the per-layer ones traced.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
)

// defaultSeconds is how long a run measures unless told otherwise;
// BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	name := fl.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fl.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fl.Float64("seconds", defaultSeconds, "how long to measure")
	trace := fl.Int("trace", 0, "1 records spans around the calls into each layer and reports the per-layer metrics")
	out := fl.String("out", "", "results file to put this run into, under its workload's name")
	commit := fl.String("commit", "unknown", "git commit of the tree, for the fingerprint")
	report := fl.String("report", "", "print the metrics in a results file; exit 1 if any check in it failed")
	compare := fl.Bool("compare", false, "compare two results files: -compare old.json new.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	switch {
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmarks -compare old.json new.json")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	case *report != "":
		results, err := readResults(*report)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		failed := 0
		for _, r := range sortedResults(results) {
			printResult(stdout, r)
			failed += r.OpsFailed
		}
		if failed > 0 {
			fmt.Fprintf(stderr, "%d checks failed\n", failed)
			return 1
		}
		return 0
	}

	def, ok := findWorkload(*name)
	if !ok || fl.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintf(stderr, "usage: benchmarks --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(names, "|"))
		return 2
	}
	e := env{seed: *seed, root: "."}
	fp := newFingerprint(*commit, e, *seconds)
	measureRun := runUntraced
	if *trace == 1 {
		measureRun = runTraced
	}
	res, err := measureRun(def, e, *seconds, fp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		if err := mergeResult(*out, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	printResult(stdout, res)
	printContractLine(stdout, res)
	return 0
}

// printContractLine prints the one-line summary the benchmark driver reads.
func printContractLine(w io.Writer, r *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.OpsFailed == 0, Attempted: r.Ops, Failed: r.OpsFailed, Metrics: map[string]mv{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // metrics.put admits finite numbers only
	}
	fmt.Fprintf(w, "%s\n", b)
}

// printResult prints every metric of a run by name, with its unit.
func printResult(w io.Writer, r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fp := r.Fingerprint
	fmt.Fprintf(w, "== %s (%s)  seed=%d seconds=%g passes=%d ops=%d ops_failed=%d\n",
		r.Workload, kind, fp.Seed, fp.Seconds, r.Passes, r.Ops, r.OpsFailed)
	fmt.Fprintf(w, "   %s %s/%s cpus=%d gomaxprocs=%d commit=%s\n",
		fp.GoVersion, fp.GOOS, fp.GOARCH, fp.NumCPU, fp.GOMAXPROCS, fp.Commit)
	for _, msg := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", msg)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		if v.N > 1 {
			fmt.Fprintf(w, "   %-30s %16.6g %-6s  median %.6g  q1 %.6g  q3 %.6g  n %d\n", d.Name, v.Value, v.Unit, v.Median, v.Q1, v.Q3, v.N)
		} else {
			fmt.Fprintf(w, "   %-30s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(r.LayerSelfMS) > 0 {
		fmt.Fprintf(w, "   self time by layer, ms:")
		for _, lt := range r.LayerSelfMS {
			fmt.Fprintf(w, " %s %.1f", lt.Layer, lt.MS)
		}
		fmt.Fprintln(w)
	}
}

// readResults reads a results file: workload name to that workload's run.
func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	results := map[string]*result{}
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// sortedResults lists the runs in the order the workloads are declared.
func sortedResults(results map[string]*result) []*result {
	var out []*result
	for _, d := range workloadDefs {
		if r, ok := results[d.name]; ok {
			out = append(out, r)
		}
	}
	return out
}

// mergeResult puts r into the results file at path, replacing an earlier
// run of the same workload and keeping the others.
func mergeResult(path string, r *result) error {
	results, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		results, err = map[string]*result{}, nil
	}
	if err != nil {
		return err
	}
	results[r.Workload] = r
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
