#!/usr/bin/env bash
# Full local check: build, go vet, gofmt, every test under the race detector,
# the allocation contracts without it, and the benchmark harness's own tests.
# What the `teapot` command must do — exit statuses, the fault matrix, fuzz
# and litmus reproducers, the coverage gate — is asserted in process by
# integration_test.go (TestExitStatus and its neighbours), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

# Nothing below may write into the tree: a test that rewrites a tracked
# file shows up as a changed `git status` at the end, not as a churn commit.
tree_before="$(git status --porcelain)"
go build ./...
go vet ./...
# The benchmark harness is a module of its own, which `go vet ./...` above
# does not reach.
(cd benchmarks && go vet ./...)
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "check.sh: gofmt -l . lists: $unformatted" >&2; exit 1; }
# Every suite under the race detector: the parallel checker's determinism
# contract and the visited store's barrier (workers claim into buffers of
# their own and read its table unlocked: TestVisitedRace, TestVisitedModel),
# the transition memo's worker
# equivalence (TestMemoWorkerEquivalence), the differential replay, the symmetry
# equivalence suite, the litmus harness, the committed reproducers and the
# fuzz-target seed corpora are all in here once. Tests run in shuffled order:
# a bundled protocol compiles once per process and every Spec shares it, so
# no test may depend on which test compiled it first.
go test -race -shuffle=on ./...
# Five seconds of coverage-guided fuzzing per input the tools read (go test
# -fuzz takes one target and one package; a new input is minimized for ten
# executions, not a minute). A crasher stops the script and is left in the
# package's testdata/fuzz/, where the gate at the end would catch it too.
for target in FuzzLex:lexer FuzzParse:litmus FuzzLoad:fuzz FuzzCompile:core FuzzDecodeState:runtime FuzzNetModel:netmodel \
  FuzzExec:runtime FuzzClientScript:mc FuzzRestore:mc FuzzManifest:manifest; do
  go test -run '^$' -fuzz "${target%%:*}" -fuzztime 5s -fuzzminimizetime 10x "./internal/${target##*:}"
done
# Not under -race. The allocation contracts (canonicalize: 0 over warmed
# scratch; Snapshot: the returned string only; mc.Check: at most 0.1 per
# transition a larger exploration adds — regions, not the heap, hold what
# expanding a state builds; the visited store and its intern table of key
# segments: 0 per claim of a key committed, or pending in the claiming
# worker's own buffer, under N/400 to insert N states, and 0 for a commit
# no larger than an earlier one, which reuses the workers' buffers; a probe of the checker's
# tables (slots, interner lookups, hit or miss): 0; a delivery into a warmed engine: 0, support
# call, send and all, register stack empty afterwards; a whole simulated run:
# at most 1 per message; a warmed fuzz.Judge run of each litmus corpus test,
# recorder and trace cursor included: under 20; a warmed litmus runner run
# that repeats an outcome its set holds: at most that bound plus 2, 22;
# token.Lookup: 0;
# liveness.Analyze: at most 2 per function; core.Compile of stache: within
# 5 % of the count and of the bytes the test names; codegen and murphi:
# under 1.5 times the text they return; making the Mp3d trace at 32 nodes:
# at most 8),
# which -race perturbs by allocating on its own account;
# and the TestExitStatus rows and EXPERIMENTS.md blocks that skip under it
# for taking seconds (the 3-node drop envelope, the 4-node cut at 200 000
# states, the larger symmetry pairs).
go test -count=1 -run 'TestCanonicalizeAllocs|TestExpandAllocs|TestVisitedAllocs|TestProbeAllocs|TestDispatchAllocs|TestSimAllocsPerMessage|TestJudgeAllocs|TestRunnerAllocs|TestLookupAllocs|TestLivenessAllocs|TestCompileAllocs|TestBackEndsAllocateTheirText|TestWorkloadTracesExactlySized|TestExitStatus|TestExperimentsCurrent' \
  ./internal/mc/ ./internal/runtime/ ./internal/litmus/ ./internal/token/ ./internal/liveness/ ./internal/core/ ./internal/sim/ .
# The benchmark harness's own tests: small-shape correctness checks that run
# the checker (reduced and unreduced), the simulator and the litmus corpus
# against benchmarks/expected.json. A module of its own, so `go test ./...`
# above does not reach it.
(cd benchmarks && go test ./...)
# The tracked size metrics (ROADMAP "Prune, round four"), measured the one
# way every CHANGES.md entry quotes them, with internal/mc's share beside the
# total: the checker is what that round prunes.
echo "non-test Go outside benchmarks/: $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l) lines" \
  "(internal/mc: $(find internal/mc -name '*.go' ! -name '*_test.go' | xargs cat | wc -l));" \
  "DESIGN.md: $(wc -l < DESIGN.md) lines; EXPERIMENTS.md: $(wc -l < EXPERIMENTS.md) lines"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
  echo "check.sh: the checks changed the working tree:" >&2
  git status --porcelain >&2
  exit 1
fi
