// Integration tests driving the command-line tools end to end via the Go
// toolchain. Skipped with -short.
package teapot_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"teapot/internal/manifest"
)

func runTool(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestTeapotcStats(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	out, err := runTool(t, "./cmd/teapotc", "-builtin", "stache", "-emit", "stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"protocol Stache", "states:", "suspend sites:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTeapotcEmitsAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	cases := map[string]string{
		"go":     "package proto",
		"murphi": "Murphi specification",
		"dot":    "digraph",
		"ir":     "func ",
		"fmt":    "protocol Stache begin",
	}
	for emit, want := range cases {
		out, err := runTool(t, "./cmd/teapotc", "-builtin", "stache", "-emit", emit)
		if err != nil {
			t.Fatalf("-emit %s: %v\n%s", emit, err, out)
		}
		if !strings.Contains(out, want) {
			t.Errorf("-emit %s missing %q", emit, want)
		}
	}
}

func TestTeapotcCompilesAFile(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := t.TempDir()
	src := `
protocol Mini begin
  state A();
  message M;
end;
state Mini.A() begin
  message M (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
`
	path := filepath.Join(dir, "mini.tea")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, "./cmd/teapotc", "-home-start", "A", "-cache-start", "A", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "protocol Mini") {
		t.Errorf("output:\n%s", out)
	}
}

func TestTeapotcRejectsBadSource(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.tea")
	if err := os.WriteFile(path, []byte("protocol P begin end"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, "./cmd/teapotc", path)
	if err == nil {
		t.Fatalf("expected failure, got:\n%s", out)
	}
	if !strings.Contains(out, "teapotc:") {
		t.Errorf("no diagnostic:\n%s", out)
	}
}

func TestVerifyCleanAndBuggy(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	// No network flag means the paper's "1 reordering max".
	out, err := runTool(t, "./cmd/teapot-verify", "-proto", "stache")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "verified") || !strings.Contains(out, "219 states") || !strings.Contains(out, "net reorder=1") {
		t.Errorf("output:\n%s", out)
	}
	out, err = runTool(t, "./cmd/teapot-verify", "-proto", "stache-buggy")
	if err == nil {
		t.Fatalf("buggy protocol should exit non-zero:\n%s", out)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "deadlock") {
		t.Errorf("output:\n%s", out)
	}
	// The spellings -proto and -net replaced are usage errors.
	for _, args := range [][]string{{"-protocol", "stache"}, {"-reorder", "1"}} {
		out, err = runTool(t, append([]string{"./cmd/teapot-verify"}, args...)...)
		if err == nil || !strings.Contains(out, "flag provided but not defined: "+args[0]) || !strings.Contains(out, "exit status 2") {
			t.Errorf("%v: err %v, output:\n%s", args, err, out)
		}
	}
}

func TestSimTool(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	out, err := runTool(t, "./cmd/teapot-sim", "-workload", "shallow", "-nodes", "8", "-iters", "2", "-engine", "opt")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"execution time:", "faults:", "continuations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchToolTables(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	bin := filepath.Join(t.TempDir(), "teapot-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/teapot-bench").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Run where anything the tool wrote would show.
	cmd := exec.Command(bin, "-table", "3")
	cmd.Dir = t.TempDir()
	raw, err := cmd.CombinedOutput()
	out := string(raw)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"Table 3", "Stache", "LCM MCC", "verified", "Fault sweep", "VIOLATION deadlock"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if left, err := os.ReadDir(cmd.Dir); err != nil || len(left) != 0 {
		t.Errorf("teapot-bench -table 3 left %v in its working directory (err %v)", left, err)
	}

	raw, err = exec.Command(bin, "-table", "7").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(raw), `-table "7"`) {
		t.Errorf("-table 7: err %v, output:\n%s", err, raw)
	}
}

func TestFuzzTool(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	// A clean protocol runs a short campaign without violations (exit 0).
	out, err := runTool(t, "./cmd/teapot-fuzz", "-proto", "stache", "-schedules", "25", "-seed", "7")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "no violations") {
		t.Errorf("output:\n%s", out)
	}

	// The seeded-bug fixture under a one-drop budget: found, shrunk,
	// written to disk, and the artifact replays to the same failure.
	repro := filepath.Join(t.TempDir(), "repro.json")
	out, err = runTool(t, "./cmd/teapot-fuzz", "-proto", "stache-ft-buggy", "-net", "drop=1",
		"-seed", "2", "-schedules", "100", "-out", repro)
	if err == nil {
		t.Fatalf("seeded bug should exit non-zero:\n%s", out)
	}
	for _, want := range []string{"FAILURE", "coherence violation", "minimal reproducer:", "reproducer replays from disk"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The saved artifact alone reproduces the failure.
	out, err = runTool(t, "./cmd/teapot-fuzz", "-replay", repro)
	if err == nil {
		t.Fatalf("replay of a failing schedule should exit non-zero:\n%s", out)
	}
	if !strings.Contains(out, "reproduced:") || !strings.Contains(out, "coherence violation") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	cases := map[string]string{
		"./examples/quickstart":      "final states:",
		"./examples/custom-protocol": "outcome = true",
		"./examples/verification":    "verified",
		"./examples/lcm-phases":      "LCM",
	}
	for dir, want := range cases {
		out, err := runTool(t, dir)
		if err != nil {
			t.Fatalf("%s: %v\n%s", dir, err, out)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q", dir, want)
		}
	}
}

// TestVerifyJSONManifest: `teapot-verify -json` must write a valid,
// machine-readable run manifest to stdout — the golden schema the
// coverage tooling (teapot-cover, check.sh) keys on.
func TestVerifyJSONManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	out, err := runTool(t, "./cmd/teapot-verify", "-proto", "stache", "-net", "reorder=1", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("stdout is not a JSON manifest: %v\n%s", err, out)
	}
	for _, key := range []string{"manifest_version", "tool", "protocol", "nodes", "blocks", "coverage", "mc"} {
		if _, ok := m[key]; !ok {
			t.Errorf("manifest missing key %q", key)
		}
	}
	var mc struct {
		States        int     `json:"states"`
		Transitions   int     `json:"transitions"`
		StatesPerSec  float64 `json:"states_per_sec"`
		PeakFrontier  int     `json:"peak_frontier"`
		SymmetryGroup int     `json:"symmetry_group"`
	}
	if err := json.Unmarshal(m["mc"], &mc); err != nil {
		t.Fatal(err)
	}
	if mc.States == 0 || mc.Transitions == 0 || mc.PeakFrontier == 0 {
		t.Errorf("mc stats not populated: %+v", mc)
	}
	var cov struct {
		Dispatch map[string]uint64 `json:"dispatch"`
	}
	if err := json.Unmarshal(m["coverage"], &cov); err != nil {
		t.Fatal(err)
	}
	if cov.Dispatch["Home_Idle.GET_RO_REQ"] == 0 {
		t.Errorf("coverage lacks the always-exercised pair: %v", cov.Dispatch)
	}

	// A violating run still emits the manifest (with the counterexample and
	// flight-recorder tail inside) and exits 2. Stdout alone must be the
	// manifest — the flight-recorder dump goes to stderr.
	cmd := exec.Command("go", "run", "./cmd/teapot-verify", "-proto", "stache", "-net", "drop=1", "-json")
	cmd.Env = os.Environ()
	stdout, err := cmd.Output()
	if err == nil {
		t.Fatalf("violating -json run should exit non-zero:\n%s", stdout)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(stdout, &man); err != nil {
		t.Fatalf("stdout of a violating run is not a manifest: %v\n%s", err, stdout)
	}
	var stats struct {
		Violation *struct {
			Kind  string            `json:"kind"`
			Steps []json.RawMessage `json:"steps"`
		} `json:"violation"`
	}
	if err := json.Unmarshal(man["mc"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Violation == nil || stats.Violation.Kind == "" || len(stats.Violation.Steps) == 0 {
		t.Errorf("violating manifest lacks a counterexample: %s", man["mc"])
	}
	if _, ok := man["flight_recorder"]; !ok {
		t.Error("violating manifest lacks the flight-recorder tail")
	}
}

// TestReportManifests: -report writes the shared run-manifest schema from
// the checker and from the fuzzer alike — one stats block each (Load
// validates version and exactly-one-of), the run shape, and dispatch
// coverage for teapot-cover to diff. (The litmus manifest is asserted by
// TestLitmusGoldenJSON, the -json spelling by TestVerifyJSONManifest.)
func TestReportManifests(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	for _, args := range [][]string{
		{"./cmd/teapot-verify", "-proto", "stache", "-nodes", "3", "-net", "reorder=1"},
		{"./cmd/teapot-fuzz", "-proto", "stache", "-nodes", "3", "-blocks", "1", "-net", "reorder=1", "-schedules", "50", "-seed", "7"},
	} {
		report := filepath.Join(t.TempDir(), "man.json")
		if out, err := runTool(t, append(args, "-report", report)...); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		man, err := manifest.Load(report)
		if err != nil {
			t.Fatal(err)
		}
		if "./cmd/"+man.Tool != args[0] || man.Protocol != "stache" || man.Nodes != 3 {
			t.Errorf("%v: manifest identifies %s on %s", args, man.Tool, man.Shape())
		}
		if (man.MC != nil) != (man.Tool == "teapot-verify") || (man.Fuzz != nil) != (man.Tool == "teapot-fuzz") {
			t.Errorf("%v: stats blocks mc=%v fuzz=%v", args, man.MC != nil, man.Fuzz != nil)
		}
		if man.Coverage == nil || len(man.Coverage.Dispatch) == 0 {
			t.Errorf("%v: manifest lacks dispatch coverage", args)
		}
	}
}

// TestSymmetryCertificates: teapot-vet -json embeds the static symmetry
// certificate, and it must hold — node and block equivariance — for every
// bundled protocol the checker reduces (stache-asym is the deliberate
// exception and is left out).
func TestSymmetryCertificates(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	protos := []string{"stache", "stache-cas", "stache-ft", "lcm", "lcm-mcc", "bufwrite", "update"}
	cmd := exec.Command("go", append([]string{"run", "./cmd/teapot-vet", "-json"}, protos...)...)
	cmd.Env = os.Environ()
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	type dim struct {
		Equivariant bool `json:"equivariant"`
	}
	var reports []struct {
		Protocol string `json:"protocol"`
		Symmetry *struct {
			Node, Block dim
		} `json:"symmetry"`
	}
	if err := json.Unmarshal(stdout, &reports); err != nil {
		t.Fatalf("stdout is not a JSON report list: %v\n%s", err, stdout)
	}
	if len(reports) != len(protos) {
		t.Fatalf("%d reports for %d protocols", len(reports), len(protos))
	}
	for _, r := range reports {
		if r.Symmetry == nil || !r.Symmetry.Node.Equivariant || !r.Symmetry.Block.Equivariant {
			t.Errorf("%s: symmetry certificate %+v", r.Protocol, r.Symmetry)
		}
	}
}

// TestLitmusGoldenJSON: `teapot-litmus -mode mc -json` is fully
// deterministic — the exhaustive checker enumerates outcome sets and the
// report sorts every list — so the mp-family report is pinned
// byte-for-byte against the committed golden file. A schema or outcome
// change must be deliberate: regenerate with
//
//	go run ./cmd/teapot-litmus -corpus testdata/litmus -only mp -mode mc -json \
//	  2>/dev/null > testdata/golden/teapot-litmus-mp-mc.json
func TestLitmusGoldenJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	cmd := exec.Command("go", "run", "./cmd/teapot-litmus",
		"-corpus", "testdata/litmus", "-only", "mp", "-mode", "mc", "-json")
	cmd.Env = os.Environ()
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "teapot-litmus-mp-mc.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout, golden) {
		t.Errorf("report drifted from the golden file (see regeneration note above)\n--- got ---\n%s\n--- want ---\n%s", stdout, golden)
	}

	// The run manifest rides the shared schema: tool litmus, exactly one
	// stats block, aggregate per-corpus accounting. -report requires a
	// single-protocol selection, so narrow to the stache-ft pair
	// (mp-drop-ft, mp-dup-ft).
	report := filepath.Join(t.TempDir(), "litmus-man.json")
	cmd = exec.Command("go", "run", "./cmd/teapot-litmus",
		"-corpus", "testdata/litmus", "-only", "mp-d", "-mode", "mc", "-report", report)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	man, err := manifest.Load(report)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "teapot-litmus" || man.Litmus == nil {
		t.Fatalf("manifest tool/stats = %q/%v", man.Tool, man.Litmus)
	}
	if man.Litmus.Tests != 2 || man.Litmus.Failed != 0 || man.Litmus.MCStates == 0 {
		t.Errorf("litmus stats = %+v", man.Litmus)
	}
	if man.Coverage == nil || len(man.Coverage.Dispatch) == 0 {
		t.Error("litmus manifest lacks dispatch coverage")
	}
}

// TestLitmusFailCorpus: the negative-path corpus entries must FAIL with
// their pinned classes — that is what proves the harness can still see
// seeded bugs.
func TestLitmusFailCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := t.TempDir() // reproducers land here, not in the repo
	cmd := exec.Command("go", "run", "./cmd/teapot-litmus",
		"-corpus", filepath.Join("testdata", "litmus", "fail"), "-mode", "all",
		"-out", filepath.Join(dir, "repro.json"))
	cmd.Dir = "."
	abs, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Dir = abs
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("fail corpus ran clean:\n%s", out)
	}
	for _, want := range []string{"swmr", "deadlock", "minimal reproducer:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("fail-corpus output missing %q:\n%s", want, out)
		}
	}
}
