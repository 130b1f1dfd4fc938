#!/usr/bin/env bash
# Build the end-to-end benchmark into build/e2e and run it.
#
#   bash bench/e2e/run.sh                         # all four workloads, one after another
#   bash bench/e2e/run.sh --workload fig07-32t [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/e2e/run.sh --smoke                 # 2 cells per workload: fingerprints + output
#
# Every option except --smoke goes to bench_e2e unchanged (see its --help).
# Build output goes to stderr; each workload's last stdout line is its JSON
# summary, and its full result lands in build/e2e/out/<W>-s<seed>.result.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/e2e"
workloads=(fig07-32t backends-8t dbtraffic-8t bigmesh-64t)

smoke=0
have_workload=0
args=()
for a in "$@"; do
  case "$a" in
    --smoke) smoke=1 ;;
    --workload) have_workload=1; args+=("$a") ;;
    *) args+=("$a") ;;
  esac
done

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake -S "$here" -B "$build" "${generator[@]}" >&2
cmake --build "$build" --target bench_e2e -j "$jobs" >&2
bench="$build/bench_e2e"

if [ "$smoke" = 1 ]; then
  # Each run must pass the fingerprint gate and end with the one-line summary
  # whose metric names and units are the ones BENCHMARK.json declares.
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      line="$("$bench" --workload "$w" --smoke --trace "$trace" "${args[@]}" | tail -n 1)"
      python3 - "$root/BENCHMARK.json" "$trace" "$line" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
want = bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]
out = json.loads(sys.argv[3])
assert sorted(out) == ["attempted", "correct", "failed", "metrics"], sorted(out)
assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
got = {k: v["unit"] for k, v in out["metrics"].items()}
assert got == {m["name"]: m["unit"] for m in want}, got
assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
EOF
      echo "smoke $w trace=$trace: ok" >&2
    done
  done
  exit 0
fi

if [ "$have_workload" = 1 ]; then
  exec "$bench" "${args[@]}"
fi
for w in "${workloads[@]}"; do
  "$bench" --workload "$w" "${args[@]}"
done
