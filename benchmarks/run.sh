#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds the benchmark if need be and runs one workload in one process;
#       the last line of output is the JSON summary BENCHMARK.json describes.
#   bash benchmarks/run.sh
#       runs the six workloads untraced, then traced, one process each, writes
#       benchmarks/out/results.json and benchmarks/out/trace.json, prints the
#       metric table, and exits non-zero if any correctness check failed.
#   bash benchmarks/run.sh -compare old.json new.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/teapot-benchmarks"

# Everything the go command writes stays inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
mkdir -p "$build"
(cd "$here" && go build -o "$bin" .)

cd "$root"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [ "$#" -gt 0 ]; then
  exec "$bin" -commit "$commit" "$@"
fi

out="$here/out"
mkdir -p "$out"
rm -f "$out/results.json" "$out/trace.json"
workloads="compile_all sim_tables verify_full verify_sym verify_small litmus_corpus"
for w in $workloads; do
  "$bin" -commit "$commit" -workload "$w" -trace 0 -out "$out/results.json" >/dev/null
done
for w in $workloads; do
  "$bin" -commit "$commit" -workload "$w" -trace 1 -out "$out/trace.json" >/dev/null
done
status=0
"$bin" -report "$out/results.json" || status=$?
"$bin" -report "$out/trace.json" || status=$?
exit "$status"
