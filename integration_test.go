// Integration tests driving the `teapot` command end to end. The command is
// a function (cli.Main), so all but TestBinary and TestExamplesRun run it in
// process and see its exact exit status.
package teapot_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"teapot/internal/cli"
	"teapot/internal/manifest"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// teapot runs one command line in process.
func teapot(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = cli.Main(args, &out, &errb)
	return status, out.String(), errb.String()
}

// homeFaultGaps are the six home-side processor-fault handlers whose fault
// kind the home's own access mode precludes (see EXPERIMENTS.md): the only
// statically reachable dispatch pairs an exhaustive 3-node Stache run may
// leave uncovered.
const homeFaultGaps = "Home_Excl.WR_RO_FAULT,Home_Idle.RD_FAULT,Home_Idle.WR_FAULT,Home_Idle.WR_RO_FAULT,Home_RS.RD_FAULT,Home_RS.WR_FAULT"

// containsInOrder reports whether s contains the " … "-separated parts of
// want, one after the other.
func containsInOrder(s, want string) bool {
	for _, part := range strings.Split(want, " … ") {
		i := strings.Index(s, part)
		if i < 0 {
			return false
		}
		s = s[i+len(part):]
	}
	return true
}

// TestExitStatus pins the exit-status contract of internal/cli — 0 positive
// verdict, 1 negative verdict, 2 no verdict — one command line per row, with
// what the named stream must contain (" … " separates strings that follow
// one another). Rows run in order and $T is one temporary directory, so a
// row may read the file an earlier row wrote. Rows that take seconds are
// skipped under -short and the race detector.
func TestExitStatus(t *testing.T) {
	tmp := t.TempDir()
	// Input files that state what a flag would refuse, or that do not
	// describe a run: the committed clean reproducer, edited.
	fixed, err := os.ReadFile("testdata/repro/stache-ft-ack-fixed.json")
	if err != nil {
		t.Fatal(err)
	}
	edited := func(old, new string) string { return strings.Replace(string(fixed), old, new, 1) }
	for name, content := range map[string]string{
		"bad.tea":          "protocol P begin end",
		"huge/huge.lit":    "litmus huge\nproto stache\nblocks x\nnode 30000000:\n  put x 1\n",
		"neg-ops.json":     edited(`"ops_per_node": 40`, `"ops_per_node": -5`),
		"bogus-kind.json":  edited(`"kind": "fault"`, `"kind": "bogus"`),
		"pick-99.json":     edited(`"pick": 1`, `"pick": 99`),
		"pick-neg.json":    edited(`"pick": 1`, `"pick": -7`),
		"one-node.json":    edited(`"nodes": 3`, `"nodes": 1`),
		"lit-pick-99.json": `{"proto":"stache","nodes":2,"blocks":2,"net":"","workload_seed":1,"ops_per_node":0,"litmus":"mp","decisions":[{"step":3,"kind":"tie","pick":99}]}`,
	} {
		path := filepath.Join(tmp, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		args   string
		status int
		stdout string
		stderr string
		absent string // must not appear on stdout
		slow   bool
	}{
		{args: "", status: 2, stderr: "usage: teapot <subcommand>"},
		{args: "nosuch", status: 2, stderr: `unknown subcommand "nosuch"`},
		{args: "help", status: 0, stdout: "exit status: 0 positive verdict, 1 negative verdict, 2 no verdict"},
		{args: "verify -h", status: 0, stderr: "usage: teapot verify"},

		{args: "compile -emit stats stache", status: 0, stdout: "protocol Stache"},
		{args: "compile nosuch", status: 2, stderr: `teapot compile: unknown protocol "nosuch": want a .tea file or one of stache, stache-ft,`},
		{args: "compile", status: 2, stderr: "want one protocol to compile"},
		{args: "compile -emit bogus stache", status: 2, stderr: `invalid value "bogus" for flag -emit: want go | murphi | dot | ir | fmt | stats | sites`},
		{args: "compile stache -emit go", status: 2, stderr: `unexpected argument "-emit"`},
		{args: "compile -builtin stache", status: 2, stderr: "flag provided but not defined: -builtin"},
		{args: "compile -vet stache", status: 2, stderr: "flag provided but not defined: -vet"},
		{args: "compile $T/bad.tea", status: 2, stderr: "teapot compile: "},
		{args: "compile $T/missing.tea", status: 2, stderr: "no such file"},

		{args: "vet", status: 0}, // the bundled protocols stay clean
		{args: "vet -all stache", status: 0, stdout: "(teapot verify -net drop=1 shows the stall) [vet:timeout]"},
		{args: "vet stache-buggy", status: 1, stdout: "[vet:defer-deadlock]"},
		{args: "vet nosuch", status: 2, stderr: `teapot vet: unknown protocol "nosuch": want a .tea file or one of stache, stache-ft,`},
		{args: "vet ./internal/protocols/...", status: 2, stderr: `unknown protocol "./internal/protocols/..."`},
		{args: "vet $T/bad.tea", status: 2, stderr: "bad.tea: "},

		{args: "verify -proto stache", status: 0, stdout: "219 states, 402 transitions, depth 20 … verified: no deadlock, no unexpected messages, coherence holds"},
		// LCM's phases are deliberately inconsistent, so SWMR is not evaluated
		// for it, and the verdict says so instead of claiming it holds.
		{args: "verify -proto lcm", status: 0, stdout: "verified: no deadlock, no unexpected messages, coherence not checked", absent: "coherence holds"},
		{args: "verify -proto stache -progress=always", status: 0, stderr: "mc: depth 0  frontier 2  states 3"},
		{args: "verify -proto stache -nodes 3 -symmetry=on", status: 0, stdout: "symmetry /2"},
		// -stats says what a key cost and what the visited store retains.
		{args: "verify -proto stache -stats", status: 0, stdout: "  keys:           40 bytes mean, 57% encoded per successor\n  visited set:    13.5 KiB (63 bytes/state)\n"},
		// A deadlock says what each stalled block waits for: the messages
		// its state handles, and the drops of messages about it.
		{args: "verify -proto stache-buggy", status: 1, stdout: "VIOLATION deadlock" +
			" … node 0 block 0 in Home_AwaitInvAcks handles PUT_NO_DATA_RESP, EVICT_RO_REQ\n" +
			" … node 1 block 0 in Cache_RO_To_RW handles GET_RW_RESP, UPGRADE_ACK\n"},
		{args: "verify -proto stache -net drop=1", status: 1, stdout: "VIOLATION deadlock" +
			" … node 1 block 0 in Cache_Inv_To_RO handles GET_RO_RESP, PUT_NO_DATA_REQ; GET_RO_REQ 1->0 lost at step 2\n"},
		// A value is read whole: read as far as it parses, drop=0x10 would
		// explore a perfect network and verify.
		{args: "verify -proto stache -net drop=0x10", status: 2, stderr: `invalid value "drop=0x10" for flag -net: netmodel: bad value "0x10" for drop`},
		{args: "verify -proto stache -nodes 6 -blocks 6 -max-states 100", status: 1, stdout: "VIOLATION state-limit"},
		{args: "verify -net drip=1", status: 2, stderr: `invalid value "drip=1" for flag -net: netmodel: unknown key "drip"`},
		// -net has the faults traffic takes, and no others.
		{args: "verify -net corrupt=1", status: 2, stderr: `netmodel: unknown key "corrupt" (known: reorder, delay, drop, dup)`},
		{args: "verify -nope", status: 2, stderr: "flag provided but not defined: -nope"},
		{args: "verify -protocol stache", status: 2, stderr: "flag provided but not defined: -protocol"},
		{args: "verify -reorder 1", status: 2, stderr: "flag provided but not defined: -reorder"},
		{args: "verify stache-buggy", status: 2, stderr: `unexpected argument "stache-buggy" (did you mean -proto stache-buggy?)`},
		{args: "verify -nodes 0", status: 2, stderr: `invalid value "0" for flag -nodes: want 2..64`},
		{args: "verify -nodes -1", status: 2, stderr: `invalid value "-1" for flag -nodes: want 2..64`},
		{args: "verify -nodes 1", status: 2, stderr: `invalid value "1" for flag -nodes: want 2..64`},
		{args: "verify -nodes 65", status: 2, stderr: `invalid value "65" for flag -nodes: want 2..64`},
		{args: "verify -blocks 0", status: 2, stderr: `invalid value "0" for flag -blocks: want at least 1`},
		{args: "verify -max-states -5", status: 2, stderr: `invalid value "-5" for flag -max-states: want at least 0`},
		{args: "verify -workers -3", status: 2, stderr: `invalid value "-3" for flag -workers: want at least 0`},
		// A flag is registered only where it is read: the checker draws
		// nothing, and a campaign's worker count reaches nothing.
		{args: "verify -proto stache -seed 3", status: 2, stderr: "flag provided but not defined: -seed"},
		{args: "verify -symmetry maybe", status: 2, stderr: `invalid value "maybe" for flag -symmetry: want auto | off | on`},
		{args: "verify -progress loud", status: 2, stderr: `invalid value "loud" for flag -progress: want auto | always | never`},
		{args: "verify -proto nosuch", status: 2, stderr: `no runnable spec for protocol "nosuch" (runnable: stache, stache-ft, stache-asym,`},
		{args: "verify -proto stache-cas", status: 2, stderr: `no runnable spec for protocol "stache-cas"`},
		// The asymmetric fixture is refused under -symmetry=on, naming the
		// witness: no verdict.
		{args: "verify -proto stache-asym -symmetry=on", status: 2, stderr: "the static prover refutes node symmetry: handler Cache_RO.PUT_NO_DATA_REQ, ordering compares node ids"},
		// The fault matrix: the fault-tolerant Stache verifies under each
		// budgeted fault the repo documents as its envelope, including the
		// 3-node drop envelope held by the awaiting-mask ack guard the fuzzer
		// forced (internal/protocols/stache/ft.go); the base Stache needs the
		// TIMEOUT machinery (the drop=1 row above).
		{args: "verify -proto stache-ft -net reorder=1", status: 0, stdout: "verified"},
		{args: "verify -proto stache-ft -net drop=1", status: 0, stdout: "verified"},
		{args: "verify -proto stache-ft -net dup=1", status: 0, stdout: "verified"},
		{args: "verify -proto stache-ft -net drop=1,dup=1", status: 0, stdout: "verified"},
		{args: "verify -proto stache-ft -nodes 3 -blocks 1 -net drop=1", status: 0, stdout: "verified", slow: true},
		// The same shape unreduced is the verify_full benchmark: a successor's
		// key copies from its parent's what its action cannot have changed,
		// and what a replay or a fault splices from it, and the copied bytes
		// are not counted as encoded; a state is decoded only when one of its
		// actions must run a handler; the visited store keeps its 170,738
		// states as ids of 2,487 distinct segments; and all but 1.9% of the
		// handler runs are replayed from the transition memo, which keys a
		// delivery by its message, the same for any worker count.
		{args: "verify -proto stache-ft -nodes 3 -blocks 1 -net drop=1 -symmetry=off -stats", status: 0,
			stdout: "170738 states, 521346 transitions … decodes:        8456 (states decoded into a world, at most once each)\n" +
				"  keys:           74 bytes mean, 34% encoded per successor\n" +
				"  visited set:    6.0 MiB (37 bytes/state)\n" +
				"  segments:       2487 distinct, 63.6 KiB\n" +
				"  memo:           6379 entries, 447.0 KiB, 98.1% of 443104 handler runs replayed\n", slow: true},
		// The same shape reduced is the verify_sym benchmark: a symmetric
		// successor's challengers are assembled from remapped segments, and
		// only the pieces the remap table lacked count as encoded; the table
		// is reported on the segments line only under reduction.
		{args: "verify -proto stache-ft -nodes 3 -blocks 1 -net drop=1 -symmetry=on -stats", status: 0,
			stdout: "85409 states, 260874 transitions … keys:           74 bytes mean, 34% encoded per successor\n" +
				" … segments:       1397 distinct, 34.0 KiB; remap table 1389 pieces, 132.0 KiB\n" +
				" … memo:           3269 entries, 255.0 KiB, 98.0% of 221693 handler runs replayed\n", slow: true},
		// The large shape: 4 nodes under one drop is 9.2 M states in full, so
		// cut it — the run stops at the first layer barrier past the limit
		// with exactly these counts (TestWiderEnvelope pins the 300 000 cut),
		// having rolled the visited store's chunks over and doubled every
		// shard table several times on the way.
		{args: "verify -proto stache-ft -nodes 4 -blocks 1 -net drop=1 -max-states 200000", status: 1,
			stdout: "223300 states, 732744 transitions, depth 17 … VIOLATION state-limit", slow: true},

		{args: "sim -workload shallow -nodes 8 -iters 2 -engine opt", status: 0, stdout: "execution time:"},
		{args: "sim -workload stencil -nodes 8 -iters 2 -engine hw", status: 0, stdout: "engine hw"},
		{args: "sim -workload gauss -nodes 4 -iters 1 -net drop=4 -seed 7", status: 1, stdout: "FAILED: tempest: node 0 never finished"},
		{args: "sim -engine bogus", status: 2, stderr: `invalid value "bogus" for flag -engine: want hw | unopt | opt | ft`},
		{args: "sim -workload nosuch", status: 2, stderr: `for flag -workload: want gauss | appbt | shallow | mp3d | prodcons | adaptive | stencil | unstruct`},
		{args: "sim -nodes -1", status: 2, stderr: `invalid value "-1" for flag -nodes: want 1..64`},
		{args: "sim -nodes 0", status: 2, stderr: `invalid value "0" for flag -nodes: want 1..64`},
		{args: "sim -nodes 100", status: 2, stderr: `invalid value "100" for flag -nodes: want 1..64`},
		{args: "sim -iters 0", status: 2, stderr: `invalid value "0" for flag -iters: want at least 1`},
		{args: "sim -net corrupt=1", status: 2, stderr: `netmodel: unknown key "corrupt" (known: reorder, delay, drop, dup)`},
		{args: "sim -workload stencil -engine ft", status: 2, stderr: "no fault-tolerant variant"},
		{args: "sim -engine hw -stats", status: 2, stderr: "need a Teapot engine"},
		{args: "sim gauss", status: 2, stderr: `unexpected argument "gauss"`},

		// Short fixed-seed campaigns over every judgeable bundled protocol
		// run clean, as do fault budgets inside the verified envelope: drop
		// at the default 3 nodes, duplication at 2 (an epoch-less protocol
		// genuinely violates beyond that; internal/protocols/stache/ft.go).
		{args: "fuzz -proto stache -schedules 30 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto stache-ft -schedules 30 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto update -schedules 30 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto bufwrite -schedules 30 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto stache-asym -schedules 20", status: 0, stdout: "no violations"},
		{args: "fuzz -proto stache-ft -net drop=1 -schedules 200 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto stache-ft -nodes 2 -net drop=1,dup=1 -schedules 200 -seed 7", status: 0, stdout: "no violations"},
		{args: "fuzz -proto stache-ft-buggy -net drop=1 -seed 2 -schedules 100 -out $T/repro.json", status: 1,
			stdout: "(replay with: teapot fuzz -replay "},
		{args: "fuzz -replay $T/repro.json", status: 1, stdout: "reproduced: coherence violation (swmr)"},
		// A checker run cut by its state budget confirms nothing and has no
		// counterexample to replay: the fuzz verdict stands.
		{args: "fuzz -proto stache-ft-buggy -net drop=1 -seed 2 -mc-confirm -mc-states 50 -out $T/cut.json", status: 1,
			stdout: "mc-confirm: exploration cut at 185 states (-mc-states) — confirms nothing\n", absent: "checker agrees"},
		{args: "fuzz -replay testdata/repro/stache-ft-ack-fixed.json", status: 0, stdout: "applied 1 of 1 decisions … schedule ran clean"},
		{args: "fuzz -replay testdata/repro/stache-ft-buggy-ack.json", status: 1, stdout: "applied 1 of 1 decisions … reproduced: coherence violation (swmr)"},
		// A reproducer file is held to the flags' ranges, and a clean run
		// that skipped one of its decisions is no verdict, never a pass.
		{args: "fuzz -replay $T/neg-ops.json", status: 2, stderr: "ops_per_node -5: want at least 1", absent: "ran clean"},
		{args: "fuzz -replay $T/one-node.json", status: 2, stderr: "nodes 1: want 2..64", absent: "ran clean"},
		{args: "fuzz -replay $T/bogus-kind.json", status: 2, stderr: `decision 0: unknown kind "bogus"`, absent: "ran clean"},
		{args: "fuzz -replay $T/pick-neg.json", status: 2, stderr: "decision 0: pick -7: want at least 1", absent: "ran clean"},
		{args: "fuzz -replay $T/pick-99.json", status: 2, stdout: "applied 0 of 1 decisions",
			stderr: "the file does not describe a run of this build", absent: "ran clean"},
		{args: "fuzz -replay $T/missing.json", status: 2, stderr: "no such file"},
		{args: "fuzz -nodes 0", status: 2, stderr: `invalid value "0" for flag -nodes: want 2..64`},
		{args: "fuzz -nodes -1", status: 2, stderr: `invalid value "-1" for flag -nodes: want 2..64`},
		{args: "fuzz -blocks -1", status: 2, stderr: `invalid value "-1" for flag -blocks: want at least 1`},
		{args: "fuzz -ops 0", status: 2, stderr: `invalid value "0" for flag -ops: want at least 1`},
		{args: "fuzz -schedules 0", status: 2, stderr: `invalid value "0" for flag -schedules: want at least 1`},
		{args: "fuzz -proto stache -workers 2", status: 2, stderr: "flag provided but not defined: -workers"},
		{args: "fuzz -proto lcm", status: 2, stderr: `no oracle profile for protocol "lcm" (judgeable: stache, stache-ft, stache-asym, stache-buggy, stache-ft-buggy, bufwrite, update)`},
		{args: "fuzz -net rate=0.5", status: 2, stderr: `netmodel: unknown key "rate" (known: reorder, delay, drop, dup)`},
		{args: "fuzz -rate 0.5", status: 2, stderr: "flag provided but not defined: -rate"},
		{args: "fuzz stache", status: 2, stderr: "did you mean -proto stache?"},

		// The committed corpus runs clean under all three substrates (the
		// sim/fuzz outcome sets are contained in the exhaustive checker's);
		// the negative-path corpus must FAIL, with a named swmr violation and
		// a deadlock (TestLitmusFailCorpus looks at the reproducers).
		{args: "litmus -mode all", status: 0, stdout: "corpus testdata/litmus: 11 test(s), 0 failed"},
		{args: "litmus -corpus testdata/litmus/fail -mode all -out $T/lit.json", status: 1,
			stdout: "swmr … deadlock … corpus testdata/litmus/fail: 2 test(s), 2 failed"},
		{args: "litmus -corpus testdata/litmus/fail -replay $T/lit.json", status: 1, stdout: "applied 1 of 1 decisions … reproduced: "},
		{args: "litmus -replay $T/lit-pick-99.json", status: 2, stdout: "applied 0 of 1 decisions",
			stderr: "the file does not describe a run of this build", absent: "ran clean"},
		// A node header is refused before it sizes anything (this one took
		// 10.9 s and 1.4 GB to reach the -nodes range check).
		{args: "litmus -corpus $T/huge", status: 2, stderr: "huge.lit:4: node 30000000: a machine has nodes 0..63"},
		{args: "litmus -mode bogus", status: 2, stderr: `invalid value "bogus" for flag -mode: want sim | fuzz | mc | all`},
		{args: "litmus -corpus $T/nodir", status: 2, stderr: "teapot litmus: "},
		{args: "litmus -only zzz", status: 2, stderr: `no test in testdata/litmus matches -only "zzz"`},
		{args: "litmus -replay $T/repro.json", status: 2, stderr: "is not a litmus schedule (replay it with teapot fuzz -replay)"},
		{args: "fuzz -replay $T/lit.json", status: 2, stderr: "replay it with teapot litmus -replay"},
		{args: "litmus mp", status: 2, stderr: `unexpected argument "mp"`},

		// The coverage plane: an exhaustive checker run and a seeded fuzz
		// campaign over the same shape each write a manifest; the diff is
		// informational (fuzz undercoverage is expected), the static
		// cross-check is the gate — the only tolerated gaps are the six
		// home-side fault handlers. The litmus manifest rides the same
		// schema (a 2-node scripted scenario covers a fraction of the 3-node
		// surface).
		{args: "verify -proto stache -nodes 3 -net reorder=1 -report $T/mc.json", status: 0, stdout: "verified"},
		{args: "fuzz -proto stache -nodes 3 -blocks 1 -net reorder=1 -schedules 200 -seed 7 -report $T/fuzz.json", status: 0},
		{args: "litmus -only sb -mode all -report $T/litmus.json", status: 0},
		{args: "cover $T/mc.json $T/fuzz.json", status: 0, stdout: "dispatch pairs missed by other"},
		{args: "cover $T/mc.json $T/litmus.json", status: 0, stdout: "dispatch pairs missed by other"},
		{args: "cover $T/mc.json $T/mc.json", status: 0, stdout: "coverage identical"},
		{args: "cover -static -allow " + homeFaultGaps + " $T/mc.json", status: 0, stdout: "static dispatch universe saturated"},
		{args: "cover -static $T/mc.json", status: 1, stdout: "UNCOVERED: 6 statically reachable pair(s)"},
		{args: "cover $T/mc.json", status: 2, stderr: "want two manifests to diff"},
		{args: "cover -static $T/missing.json", status: 2, stderr: "no such file"},
		{args: "cover -static $T/repro.json", status: 2, stderr: "teapot cover: "},
		{args: "cover a b c", status: 2, stderr: `unexpected argument "c"`},

		{args: "tables -table 3", status: 0, stdout: "VIOLATION deadlock"},
		{args: "tables -loc", status: 0, stdout: "Code size", absent: "Producer-consumer"},
		{args: "tables -bug", status: 0, stdout: "found after 57 states"},
		{args: "tables -table 7", status: 2, stderr: `invalid value "7" for flag -table: want 0..3`},
		{args: "tables -table 1 -nodes 0", status: 2, stderr: `invalid value "0" for flag -nodes: want 1..64`},
		{args: "tables -table 1 -iters 0", status: 2, stderr: `invalid value "0" for flag -iters: want at least 1`},
		{args: "tables 3", status: 2, stderr: `unexpected argument "3"`},
	}

	seen := map[string][3]bool{}
	for _, r := range rows {
		args := strings.Fields(strings.ReplaceAll(r.args, "$T", tmp))
		if len(args) > 0 {
			s := seen[args[0]]
			s[r.status] = true
			seen[args[0]] = s
		}
		if r.slow && (raceEnabled || testing.Short()) {
			continue
		}
		status, stdout, stderr := teapot(args...)
		if status != r.status || !containsInOrder(stdout, r.stdout) || !containsInOrder(stderr, r.stderr) ||
			(r.absent != "" && strings.Contains(stdout, r.absent)) || strings.Contains(stderr, "goroutine ") {
			t.Errorf("teapot %s: status %d, want %d with %q on stdout and %q on stderr\n--- stdout ---\n%s--- stderr ---\n%s",
				r.args, status, r.status, r.stdout, r.stderr, stdout, stderr)
		}
	}

	// Every subcommand has a row for each status it can return. compile has
	// no negative verdict (a source that does not compile is no verdict),
	// and tables' — a bug hunt that misses the seeded bug — cannot be
	// produced on a tree whose seeded bug is there.
	for _, sub := range []string{"compile", "vet", "verify", "sim", "fuzz", "litmus", "cover", "tables"} {
		want := [3]bool{true, sub != "compile" && sub != "tables", true}
		if seen[sub] != want {
			t.Errorf("%s: rows cover statuses %v, want %v", sub, seen[sub], want)
		}
	}
}

// TestBinary builds cmd/teapot and checks that a real process exits with
// the status cli.Main returned.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	bin := filepath.Join(t.TempDir(), "teapot")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/teapot").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for args, want := range map[string]int{"verify -proto stache": 0, "verify -proto stache-buggy": 1, "verify -nope": 2} {
		got := 0
		var ee *exec.ExitError
		if err := exec.Command(bin, strings.Fields(args)...).Run(); errors.As(err, &ee) {
			got = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("teapot %s: exit status %d, want %d", args, got, want)
		}
	}
}

func TestTeapotcStats(t *testing.T) {
	status, out, stderr := teapot("compile", "-emit", "stats", "stache")
	if status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
	}
	for _, want := range []string{"protocol Stache", "states:", "suspend sites:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestUnoptimizedSitesAllHeap: -O=false reports the allocation the
// unoptimized engine performs — every record on the heap — in -emit sites,
// -emit stats and its options line alike.
func TestUnoptimizedSitesAllHeap(t *testing.T) {
	_, out, _ := teapot("compile", "-O=false", "-emit", "sites", "stache")
	rows := strings.Split(strings.TrimSpace(out), "\n")[2:]
	for _, row := range rows {
		if f := strings.Fields(row); len(f) != 5 || f[3] != "heap" {
			t.Errorf("site row %q: want class heap", row)
		}
	}
	_, out, _ = teapot("compile", "-O=false", "-emit", "stats", "stache")
	n := strconv.Itoa(len(rows))
	for _, want := range []string{"suspend sites: " + n + " (static 0, constant 0, dynamic " + n + ",",
		"options:   {Liveness:true ConstCont:false}"} {
		if !strings.Contains(out, want) {
			t.Errorf("-O=false -emit stats lacks %q:\n%s", want, out)
		}
	}
}

func TestTeapotcEmitsAllArtifacts(t *testing.T) {
	cases := map[string]string{
		"go":     "package proto",
		"murphi": "Murphi specification",
		"dot":    "digraph",
		"ir":     "func ",
		"fmt":    "protocol Stache begin",
		"sites":  "suspend sites for Stache",
	}
	for emit, want := range cases {
		status, out, stderr := teapot("compile", "-emit", emit, "stache")
		if status != 0 {
			t.Fatalf("-emit %s: status %d\n%s", emit, status, stderr)
		}
		if !strings.Contains(out, want) {
			t.Errorf("-emit %s missing %q", emit, want)
		}
	}
	// -o writes the artifact to a file instead.
	path := filepath.Join(t.TempDir(), "stache.go")
	if status, out, stderr := teapot("compile", "-emit", "go", "-o", path, "stache"); status != 0 || out != "" {
		t.Fatalf("-o: status %d, stdout %q\n%s", status, out, stderr)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "package proto") {
		t.Errorf("-o wrote %q (err %v)", b, err)
	}
}

func TestTeapotcCompilesAFile(t *testing.T) {
	src := `
protocol Mini begin
  state A();
  message M;
end;
state Mini.A() begin
  message M (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
`
	path := filepath.Join(t.TempDir(), "mini.tea")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"compile", "vet"} {
		status, out, stderr := teapot(sub, "-home-start", "A", "-cache-start", "A", path)
		if status != 0 {
			t.Fatalf("%s: status %d\n%s", sub, status, stderr)
		}
		if sub == "compile" && !strings.Contains(out, "protocol Mini") {
			t.Errorf("output:\n%s", out)
		}
	}
}

func TestTeapotcRejectsBadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.tea")
	if err := os.WriteFile(path, []byte("protocol P begin end"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, out, stderr := teapot("compile", path)
	if status != 2 || out != "" || !strings.Contains(stderr, "teapot compile:") {
		t.Errorf("status %d, stdout %q, stderr:\n%s", status, out, stderr)
	}
}

func TestVerifyCleanAndBuggy(t *testing.T) {
	// No network flag means the paper's "1 reordering max".
	status, out, stderr := teapot("verify", "-proto", "stache")
	if status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
	}
	if !strings.Contains(out, "verified") || !strings.Contains(out, "219 states") || !strings.Contains(out, "net reorder=1") {
		t.Errorf("output:\n%s", out)
	}
	status, out, _ = teapot("verify", "-proto", "stache-buggy")
	if status != 1 || !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "deadlock") {
		t.Errorf("status %d, output:\n%s", status, out)
	}
}

// TestSimTool: a run prints its statistics, its wall time and rates last,
// and its -trace output is a Chrome trace that passes the schema check.
func TestSimTool(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	status, out, stderr := teapot("sim", "-workload", "gauss", "-nodes", "4", "-iters", "2", "-trace", trace, "-stats")
	if status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
	}
	for _, want := range []string{"execution time:", "faults:", "continuations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if last := lines[len(lines)-1]; !regexp.MustCompile(`^  wall: [0-9.]+ ms \([0-9.]+M handlers/s, [0-9.]+M messages/s\)$`).MatchString(last) {
		t.Errorf("last line is not the wall-clock line: %q", last)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.ValidateChromeTrace(f); err != nil {
		t.Errorf("sim -trace output: %v", err)
	}
}

// TestSimAllocsPerMessage is the execution tier's whole-run allocation
// contract: compiled Stache on mp3d at 8 nodes — machine, engines and event
// loop included — allocates at most 1 object per simulated message. What
// is left are the values that differ from one message to the next: payload
// arrays, and state values with arguments and continuation records that
// save registers, each one allocation with the values it holds. The
// hand-written engine's figure is pinned beside it: it recycles its message
// records as the compiled engine does and shares the event loop, so what is
// left is records still deferred when a delivery returns and the growth of
// its deferred queues.
func TestSimAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const nodes = 8
	w := sim.Mp3d(sim.WorkloadSpec{Nodes: nodes, Iters: 32, Seed: 99})
	entry, _ := protocols.Lookup("stache")
	spec, err := entry.Spec(nodes, w.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	spec.Program = w.Trace
	compiled := spec.SimConfig()
	handWritten := compiled
	handWritten.MakeEngine = func(m runtime.Machine) tempest.Engine {
		return entry.HandWritten(spec.Proto, nodes, w.Blocks, m)
	}
	for _, c := range []struct {
		engine string
		cfg    sim.Config
		max    float64
	}{{"compiled", compiled, 1}, {"hand-written", handWritten, 0.1}} {
		var stats *tempest.Stats
		allocs := testing.AllocsPerRun(1, func() {
			if stats, err = sim.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		per := allocs / float64(stats.Messages)
		t.Logf("%s: %.0f allocations for %d messages, %.2f per message", c.engine, allocs, stats.Messages, per)
		if per > c.max {
			t.Errorf("%s engine: %.2f allocations per simulated message, want at most %v", c.engine, per, c.max)
		}
	}
}

// TestBenchToolTables: `teapot tables` writes nothing but its output (what
// it prints is EXPERIMENTS.md's checked blocks).
func TestBenchToolTables(t *testing.T) {
	// Run where anything the subcommand wrote would show.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if status, _, stderr := teapot("tables", "-table", "3"); status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("tables -table 3 left %v in its working directory (err %v)", left, err)
	}
}

var reproducerLine = regexp.MustCompile(`(?m)^ *minimal reproducer: (\d+) decision\(s\)$`)

// smallReproducers checks that every reproducer the output announces was
// shrunk to at most 10 decisions, and that it announces at least one.
func smallReproducers(t *testing.T, out string) {
	t.Helper()
	ms := reproducerLine.FindAllStringSubmatch(out, -1)
	if len(ms) == 0 {
		t.Errorf("no minimal reproducer announced:\n%s", out)
	}
	for _, m := range ms {
		if n, _ := strconv.Atoi(m[1]); n > 10 {
			t.Errorf("reproducer should shrink to <=10 decisions, got %d", n)
		}
	}
}

// TestFuzzTool: the seeded stache-ft-buggy coherence bug under a one-drop
// budget is found, shrunk to a small reproducer, written to disk, and the
// artifact alone replays to the same failure.
func TestFuzzTool(t *testing.T) {
	repro := filepath.Join(t.TempDir(), "repro.json")
	status, out, _ := teapot("fuzz", "-proto", "stache-ft-buggy", "-net", "drop=1",
		"-seed", "2", "-schedules", "100", "-out", repro)
	if status != 1 {
		t.Fatalf("seeded bug: status %d, want 1:\n%s", status, out)
	}
	for _, want := range []string{"FAILURE", "coherence violation", "reproducer replays from disk"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	smallReproducers(t, out)

	status, out, _ = teapot("fuzz", "-replay", repro)
	if status != 1 || !strings.Contains(out, "reproduced:") || !strings.Contains(out, "coherence violation") {
		t.Errorf("replay: status %d, output:\n%s", status, out)
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
		out, err := exec.Command("go", "run", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", dir, err, out)
		}
		if !strings.Contains(string(out), want) {
			t.Errorf("%s output missing %q", dir, want)
		}
	}
}

// TestVerifyJSONManifest: `teapot verify -json` must write a valid,
// machine-readable run manifest to stdout — the golden schema the coverage
// tooling (teapot cover) keys on.
func TestVerifyJSONManifest(t *testing.T) {
	status, out, stderr := teapot("verify", "-proto", "stache", "-net", "reorder=1", "-json")
	if status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
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
	// flight-recorder tail inside) and the verdict is negative. Stdout alone
	// must be the manifest — the flight-recorder dump goes to stderr.
	status, out, stderr = teapot("verify", "-proto", "stache", "-net", "drop=1", "-json")
	if status != 1 || !strings.Contains(stderr, "flight recorder (counterexample tail):") {
		t.Fatalf("violating -json run: status %d, stderr:\n%s", status, stderr)
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &man); err != nil {
		t.Fatalf("stdout of a violating run is not a manifest: %v\n%s", err, out)
	}
	var stats struct {
		Violation *struct {
			Kind  string            `json:"kind"`
			Waits []string          `json:"waits"`
			Steps []json.RawMessage `json:"steps"`
		} `json:"violation"`
	}
	if err := json.Unmarshal(man["mc"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Violation == nil || stats.Violation.Kind == "" || len(stats.Violation.Steps) == 0 {
		t.Errorf("violating manifest lacks a counterexample: %s", man["mc"])
	}
	if stats.Violation != nil && len(stats.Violation.Waits) == 0 {
		t.Errorf("deadlock manifest lacks what the stalled block waits for: %s", man["mc"])
	}
	if _, ok := man["flight_recorder"]; !ok {
		t.Error("violating manifest lacks the flight-recorder tail")
	}
}

// TestReportManifests: -report writes the shared run-manifest schema from
// the checker, the fuzzer and the simulator alike — one stats block each
// (Load validates version and exactly-one-of), the run shape, and dispatch
// coverage for `teapot cover` to diff. The "tool" values keep the names the
// tools had as separate commands: they are part of the versioned schema.
// (The litmus manifest is asserted by TestLitmusGoldenJSON, the -json
// spelling by TestVerifyJSONManifest.)
func TestReportManifests(t *testing.T) {
	for tool, args := range map[string][]string{
		"teapot-verify": {"verify", "-proto", "stache", "-nodes", "3", "-net", "reorder=1"},
		"teapot-fuzz":   {"fuzz", "-proto", "stache", "-nodes", "3", "-blocks", "1", "-net", "reorder=1", "-schedules", "50", "-seed", "7"},
		"teapot-sim":    {"sim", "-workload", "prodcons", "-nodes", "3", "-iters", "2"},
	} {
		report := filepath.Join(t.TempDir(), "man.json")
		if status, _, stderr := teapot(append(args, "-report", report)...); status != 0 {
			t.Fatalf("%v: status %d\n%s", args, status, stderr)
		}
		man, err := manifest.Load(report)
		if err != nil {
			t.Fatal(err)
		}
		if man.Tool != tool || man.Protocol != "stache" || man.Nodes != 3 {
			t.Errorf("%v: manifest identifies %s on %s", args, man.Tool, man.Shape())
		}
		if (man.MC != nil) != (tool == "teapot-verify") || (man.Fuzz != nil) != (tool == "teapot-fuzz") || (man.Sim != nil) != (tool == "teapot-sim") {
			t.Errorf("%v: stats blocks mc=%v fuzz=%v sim=%v", args, man.MC != nil, man.Fuzz != nil, man.Sim != nil)
		}
		if man.Coverage == nil || len(man.Coverage.Dispatch) == 0 {
			t.Errorf("%v: manifest lacks dispatch coverage", args)
		}
	}
}

// TestManifestNet: every tool names a run's network as netmodel renders it,
// so a perfect network is "none" in a litmus manifest as in a verify one,
// and two spellings of one model are one model. Only litmus tests whose
// models differ leave it empty (the per-test record is in -json).
func TestManifestNet(t *testing.T) {
	corpus, out := t.TempDir(), t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "litmus", "mp-drop-ft.lit"))
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]string{"a": "drop=1", "b": "dup=0,drop=1"} {
		lit := strings.Replace(strings.Replace(string(src), "litmus mp-drop-ft", "litmus "+name, 1), "net drop=1", "net "+net, 1)
		if err := os.WriteFile(filepath.Join(corpus, name+".lit"), []byte(lit), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ args, net string }{
		{"verify -proto stache -net none", "none"},
		{"litmus -only corr -mode mc", "none"},
		{"litmus -corpus " + corpus + " -mode mc", "drop=1"},
		{"litmus -only mp-d -mode mc", ""}, // drop=1 and dup=1
	} {
		report := filepath.Join(out, "man.json")
		if status, _, stderr := teapot(append(strings.Fields(c.args), "-report", report)...); status != 0 {
			t.Fatalf("teapot %s: status %d\n%s", c.args, status, stderr)
		}
		man, err := manifest.Load(report)
		if err != nil {
			t.Fatal(err)
		}
		if man.Net != c.net {
			t.Errorf("teapot %s: manifest net %q, want %q", c.args, man.Net, c.net)
		}
	}
}

// TestSymmetryCertificates: `teapot vet -json` embeds the static symmetry
// certificate, and it must hold — node and block equivariance — for every
// bundled protocol the checker reduces (stache-asym is the deliberate
// exception and is left out).
func TestSymmetryCertificates(t *testing.T) {
	protos := []string{"stache", "stache-cas", "stache-ft", "lcm", "lcm-mcc", "bufwrite", "update"}
	status, stdout, stderr := teapot(append([]string{"vet", "-json"}, protos...)...)
	if status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
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
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
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

// TestLitmusGoldenJSON: `teapot litmus -mode mc -json` is fully
// deterministic — the exhaustive checker enumerates outcome sets and the
// report sorts every list — so the mp-family report is pinned
// byte-for-byte against the committed golden file. A schema or outcome
// change must be deliberate: regenerate with
//
//	go run ./cmd/teapot litmus -corpus testdata/litmus -only mp -mode mc -json \
//	  2>/dev/null > testdata/golden/teapot-litmus-mp-mc.json
func TestLitmusGoldenJSON(t *testing.T) {
	status, stdout, stderr := teapot("litmus", "-corpus", "testdata/litmus", "-only", "mp", "-mode", "mc", "-json")
	if status != 0 || !strings.Contains(stderr, "corpus testdata/litmus: 4 test(s), 0 failed") {
		t.Fatalf("status %d\n%s", status, stderr)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "teapot-litmus-mp-mc.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(golden) {
		t.Errorf("report drifted from the golden file (see regeneration note above)\n--- got ---\n%s\n--- want ---\n%s", stdout, golden)
	}

	// The run manifest rides the shared schema: tool litmus, exactly one
	// stats block, aggregate per-corpus accounting. -report requires a
	// single-protocol selection, so narrow to the stache-ft pair
	// (mp-drop-ft, mp-dup-ft).
	report := filepath.Join(t.TempDir(), "litmus-man.json")
	if status, _, stderr := teapot("litmus", "-corpus", "testdata/litmus", "-only", "mp-d", "-mode", "mc", "-report", report); status != 0 {
		t.Fatalf("status %d\n%s", status, stderr)
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
// seeded bugs — each shrunk to a small reproducer that replays from its
// on-disk artifact.
func TestLitmusFailCorpus(t *testing.T) {
	repro := filepath.Join(t.TempDir(), "repro.json") // reproducers land here, not in the repo
	corpus := filepath.Join("testdata", "litmus", "fail")
	status, out, stderr := teapot("litmus", "-corpus", corpus, "-mode", "all", "-out", repro)
	if status != 1 {
		t.Fatalf("fail corpus: status %d, want 1:\n%s%s", status, out, stderr)
	}
	// "handles" is a checker deadlock's explanation, one line per stalled
	// block under the FAILURE line.
	for _, want := range []string{"swmr", "deadlock", "handles", "(replay with: teapot litmus -replay "} {
		if !strings.Contains(out, want) {
			t.Errorf("fail-corpus output missing %q:\n%s", want, out)
		}
	}
	smallReproducers(t, out)

	status, out, _ = teapot("litmus", "-corpus", corpus, "-replay", repro)
	if status != 1 || !strings.Contains(out, "reproduced:") {
		t.Errorf("replay: status %d, output:\n%s", status, out)
	}
}
