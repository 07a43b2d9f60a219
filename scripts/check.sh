#!/usr/bin/env bash
# Full local check: build, go vet, tests under the race detector, and a
# teapot-vet sweep over the bundled protocols (which must stay clean).
set -euo pipefail
cd "$(dirname "$0")/.."

# Nothing below may write into the tree: a test that rewrites a tracked
# file shows up as a changed `git status` at the end, not as a churn commit.
tree_before="$(git status --porcelain)"
go build ./...
go vet ./...
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "check.sh: gofmt -l . lists: $unformatted" >&2; exit 1; }
# Every suite, unskipped, under the race detector: the parallel checker's
# determinism contract and sharded visited table, the differential replay,
# the symmetry equivalence suite, the litmus harness and the committed
# reproducers are all in here once.
go test -race ./...
go run ./cmd/teapot-vet ./internal/protocols/...
# Observability smoke test: a traced sim run must produce a Chrome trace
# that passes the schema check, and the checker must run with live
# progress enabled.
go vet ./internal/obs/ ./scripts/tracecheck/
tmptrace="$(mktemp -t teapot-trace.XXXXXX.json)"
trap 'rm -f "$tmptrace"' EXIT
go run ./cmd/teapot-sim -workload gauss -nodes 4 -iters 2 -trace "$tmptrace" -stats >/dev/null
go run ./scripts/tracecheck "$tmptrace"
go run ./cmd/teapot-verify -proto stache -progress=always >/dev/null
# Fault-injection smoke matrix: the fault-tolerant Stache must verify under
# each budgeted fault the repo documents as its envelope, and the base
# Stache must demonstrably need the TIMEOUT machinery — a single dropped
# message is a reported violation (exit 2), not a pass. Built binary, not
# `go run`: go run collapses the child's exit code to 1.
verifybin="$(mktemp -t teapot-verify.XXXXXX)"
trap 'rm -f "$tmptrace" "$verifybin"' EXIT
go build -o "$verifybin" ./cmd/teapot-verify
for net in reorder=1 drop=1 dup=1 drop=1,dup=1; do
  "$verifybin" -proto stache-ft -net "$net" >/dev/null
done
# The 3-node drop envelope: held by the awaiting-mask ack guard the fuzzer
# forced (see internal/protocols/stache/ft.go) — without it the checker
# finds a 3-node SWMR violation within ~2000 states.
"$verifybin" -proto stache-ft -nodes 3 -blocks 1 -net drop=1 >/dev/null
rc=0
"$verifybin" -proto stache -net drop=1 >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check.sh: stache -net drop=1 should exit 2 (violation), got $rc" >&2
  exit 1
fi
# The large-shape path through the built binary: 4 nodes under one drop is
# 9.2 M states in full, so cut it — the run must stop at the first layer
# barrier past the limit (exit 2) with exactly these counts (TestWiderEnvelope
# pins the 300 000 cut the same way), having rolled the visited store's
# chunks over and doubled every shard table several times on the way.
rc=0
cutout="$("$verifybin" -proto stache-ft -nodes 4 -blocks 1 -net drop=1 -max-states 200000)" || rc=$?
case "$rc:$cutout" in
  2:*"223300 states, 732744 transitions, depth 17"*"VIOLATION state-limit"*) ;;
  *) echo "check.sh: stache-ft 4n/1b drop=1 -max-states 200000 should exit 2 at 223300 states, got $rc:" >&2
     printf '%s\n' "$cutout" >&2; exit 1 ;;
esac
# Fuzz smoke: short fixed-seed campaigns over every judgeable bundled
# protocol must run clean, and the seeded stache-ft-buggy coherence bug
# under a one-drop budget must be found, shrunk to a <=10-decision minimal
# reproducer, and reproduce from its on-disk artifact (exit 2). Built
# binary for the same exit-code reason as teapot-verify above.
fuzzbin="$(mktemp -t teapot-fuzz.XXXXXX)"
repro="$(mktemp -t teapot-repro.XXXXXX.json)"
trap 'rm -f "$tmptrace" "$verifybin" "$fuzzbin" "$repro"' EXIT
go build -o "$fuzzbin" ./cmd/teapot-fuzz
for proto in stache stache-ft update bufwrite; do
  "$fuzzbin" -proto "$proto" -schedules 30 -seed 7 >/dev/null
done
# Fault budgets inside the verified envelope: drop at the default 3 nodes,
# duplication at 2 (an epoch-less protocol genuinely violates beyond that;
# see internal/protocols/stache/ft.go).
"$fuzzbin" -proto stache-ft -net drop=1 -schedules 200 -seed 7 >/dev/null
"$fuzzbin" -proto stache-ft -nodes 2 -net drop=1,dup=1 -schedules 200 -seed 7 >/dev/null
rc=0
fuzzout="$("$fuzzbin" -proto stache-ft-buggy -net drop=1 -seed 2 -schedules 100 -out "$repro")" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check.sh: stache-ft-buggy -net drop=1 should exit 2 (violation), got $rc" >&2
  exit 1
fi
decisions="$(printf '%s\n' "$fuzzout" | sed -n 's/^minimal reproducer: \([0-9]*\) decision(s)$/\1/p')"
if [ -z "$decisions" ] || [ "$decisions" -gt 10 ]; then
  echo "check.sh: seeded bug should shrink to <=10 decisions, got '${decisions:-none}'" >&2
  exit 1
fi
rc=0
"$fuzzbin" -replay "$repro" >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check.sh: saved reproducer should replay to exit 2, got $rc" >&2
  exit 1
fi
# Symmetry: the asymmetric fixture must be refused under -symmetry=on
# (exit 1 with a witness) and a reduced run must actually reduce. (The
# certificate sweep over teapot-vet -json is TestSymmetryCertificates.)
rc=0
"$verifybin" -proto stache-asym -symmetry=on >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "check.sh: stache-asym -symmetry=on should be refused (exit 1), got $rc" >&2
  exit 1
fi
# Allocation contracts (canonicalize: 0 over warmed scratch; Snapshot: the
# returned string only; mc.Check: at most 8 per transition; the visited
# store: 0 per claim of a seen key, under N/100 to insert N states; a
# delivery into a warmed engine: 0, register stack empty afterwards). Not
# under -race, which perturbs sync.Pool and allocates on its own account.
go test -count=1 -run 'TestCanonicalizeAllocs|TestExpandAllocs|TestVisitedAllocs|TestDispatchAllocs' ./internal/mc/ ./internal/runtime/
# Input from outside the checker: the FuzzRestore seed corpus (walk
# snapshots of three shapes and every truncation of one each) must restore
# or be refused, and the FuzzClientScript seeds (one script per refusal)
# must check or be refused — never panic.
go test -count=1 -run 'FuzzRestore|FuzzClientScript' ./internal/mc/
symline="$("$verifybin" -proto stache -nodes 3 -symmetry=on)"
case "$symline" in
  *"symmetry /2"*) ;;
  *) echo "check.sh: expected 'symmetry /2' in: $symline" >&2; exit 1 ;;
esac
# Coverage & run-manifest plane: the single-source property made
# measurable. An exhaustive checker run and a seeded fuzz campaign over the
# same shape each write a -report manifest; teapot-cover diffs them
# (informational — fuzz undercoverage is expected) and cross-checks the
# checker's dynamic dispatch coverage against static reachability. The only
# tolerated gaps are the six home-side processor-fault handlers whose fault
# kind the home's own access mode precludes (see EXPERIMENTS.md); any other
# statically reachable handler the exhaustive run never entered fails the
# build. (The manifests' shape, and teapot-verify -json emitting the same
# one on stdout, are TestReportManifests and TestVerifyJSONManifest.)
coverbin="$(mktemp -t teapot-cover.XXXXXX)"
mcman="$(mktemp -t teapot-mc-man.XXXXXX.json)"
fuzzman="$(mktemp -t teapot-fuzz-man.XXXXXX.json)"
trap 'rm -f "$tmptrace" "$verifybin" "$fuzzbin" "$repro" "$coverbin" "$mcman" "$fuzzman"' EXIT
go build -o "$coverbin" ./cmd/teapot-cover
"$verifybin" -proto stache -nodes 3 -net reorder=1 -report "$mcman" >/dev/null
"$fuzzbin" -proto stache -nodes 3 -blocks 1 -net reorder=1 -schedules 200 -seed 7 -report "$fuzzman" >/dev/null
"$coverbin" "$mcman" "$fuzzman" >/dev/null
"$coverbin" -static \
  -allow Home_Excl.WR_RO_FAULT,Home_Idle.RD_FAULT,Home_Idle.WR_FAULT,Home_Idle.WR_RO_FAULT,Home_RS.RD_FAULT,Home_RS.WR_FAULT \
  "$mcman"
# Litmus corpus: the committed scenario shapes must run clean under all
# three substrates (the sim/fuzz outcome sets must be contained in the
# exhaustive checker's), and the negative-path corpus must FAIL — exit 2
# with a named swmr violation and a deadlock, each shrunk to a
# <=10-decision reproducer that replays from its on-disk artifact. Built
# binary for the same exit-code reason as above.
litmusbin="$(mktemp -t teapot-litmus.XXXXXX)"
litrepro="$(mktemp -t teapot-lit-repro.XXXXXX.json)"
litman="$(mktemp -t teapot-lit-man.XXXXXX.json)"
trap 'rm -f "$tmptrace" "$verifybin" "$fuzzbin" "$repro" "$coverbin" "$mcman" "$fuzzman" "$litmusbin" "$litrepro" "$litman"' EXIT
go build -o "$litmusbin" ./cmd/teapot-litmus
"$litmusbin" -mode all >/dev/null
rc=0
litout="$("$litmusbin" -corpus testdata/litmus/fail -mode all -out "$litrepro")" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check.sh: litmus fail corpus should exit 2, got $rc" >&2
  exit 1
fi
for want in swmr deadlock; do
  case "$litout" in
    *"$want"*) ;;
    *) echo "check.sh: litmus fail-corpus output lacks '$want':" >&2
       printf '%s\n' "$litout" >&2; exit 1 ;;
  esac
done
printf '%s\n' "$litout" | sed -n 's/^ *minimal reproducer: \([0-9]*\) decision(s)$/\1/p' \
  | while read -r d; do
      if [ "$d" -gt 10 ]; then
        echo "check.sh: litmus reproducer should shrink to <=10 decisions, got $d" >&2
        exit 1
      fi
    done
rc=0
"$litmusbin" -corpus testdata/litmus/fail -replay "$litrepro" >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check.sh: saved litmus reproducer should replay to exit 2, got $rc" >&2
  exit 1
fi
# The litmus run manifest rides the shared schema; diffing it against the
# exhaustive verify manifest is informational (a 2-node scripted scenario
# exercises a fraction of the 3-node surface), and the static coverage
# gate above must stay green on the same teapot-cover build.
"$litmusbin" -only sb -mode all -report "$litman" >/dev/null
"$coverbin" "$mcman" "$litman" >/dev/null
# The benchmark harness's own tests: small-shape correctness checks that run
# the checker (reduced and unreduced), the simulator and the litmus corpus
# against benchmarks/expected.json. A module of its own, so `go test ./...`
# above does not reach it.
(cd benchmarks && go test ./...)
if [ "$(git status --porcelain)" != "$tree_before" ]; then
  echo "check.sh: the checks changed the working tree:" >&2
  git status --porcelain >&2
  exit 1
fi
