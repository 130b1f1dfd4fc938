#!/usr/bin/env bash
# One-command pre-merge check: build the default and sanitize presets, run the
# full test suite under both (tier-1 plus the fuzz and coherence-replay
# determinism tests under ASan+UBSan), run the model-checker suite (ctest -L
# verify: exhaustive lktm_check sweeps + test_verify) under both presets, run
# clang-tidy over src/ when the tool is installed, validate a --stats-json
# artifact against the lktm.stats.v1 schema, smoke the 128-core banked
# directory path (or, on a 64-core-capped build, verify its rejection
# diagnostic), run the bounded 2-bank model-checker configs (clean + the
# swmr-skip-inv plant must still be caught), smoke the lktm_sweep orchestrator
# (interrupt + resume must merge bit-identical to an uninterrupted run, under
# the default and sanitize builds), smoke the distributed fan-out (3 workers
# on one claim spool, one SIGKILLed mid-job and reclaimed via heartbeat
# lease, merge must cmp equal to a single-process run — default and sanitize
# builds), smoke the database-traffic family (ycsb on the TL2 backend must
# emit validating commit-latency percentiles; the table3-dbtraffic grid must
# merge bit-identically across 1 host thread, 4 host threads and a 2-worker
# distributed run — default and sanitize builds), enforce the bench/
# artifact size cap, re-run the committed
# 128-core fig07 grid split across 2 worker processes on the bigcores build
# (summary must cmp equal to the committed lktm.summary.v1), build + test
# the trace preset (LKTM_TRACE=ON), run the lktm_lint determinism linter
# (self-test must catch every planted violation; src/ and tools/ must be
# clean; the lktm.lint.v1 artifact must validate), build the TSan preset
# and run the host-parallel sweep tests under ThreadSanitizer, then build the
# release tree and run the gated kernel microbenchmarks
# (writes BENCH_kernel.json; fails if any gated benchmark regresses below the
# required speedup against the recorded baseline).
#
# Usage: tools/run_checks.sh [--no-bench]
#   --no-bench   skip the release build + benchmark gate (tests only)
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) RUN_BENCH=0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build: default (RelWithDebInfo, assertions on) =="
cmake --preset default >/dev/null
cmake --build build -j "$JOBS"

echo "== ctest: default =="
ctest --preset default

echo "== ctest: model checker (default) =="
ctest --preset verify

echo "== clang-tidy: src/ + tools/ =="
if command -v clang-tidy >/dev/null 2>&1; then
  # The default preset exports build/compile_commands.json; any warning fails
  # (WarningsAsErrors: '*' in .clang-tidy).
  find src tools -name '*.cpp' -print0 \
    | xargs -0 -P "$JOBS" -n 8 clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping static-analysis stage"
fi

echo "== stats artifact: emit + validate (lktm.stats.v1) =="
./build/tools/lktm-sim --system LockillerTM --workload counter --threads 4 \
  --stats-json build/stats_check.json >/dev/null
./build/tools/validate_stats_json build/stats_check.json

echo "== TM backends: each registry backend runs + validates (lktm-sim --backend) =="
run_backend_smoke() {
  # $1 = build dir. Every registered backend must run a small workload end to
  # end (workload invariants + coherence checker on), report itself in the
  # run metadata, and emit a valid lktm.stats.v1 artifact; an unknown
  # backend name must exit 2 with the valid-name list.
  local bdir="$1" be out
  for be in lockiller cgl tl2 hybrid; do
    out="$bdir/backend_${be}_check.json"
    "$bdir/tools/lktm-sim" --backend "$be" --system LockillerTM \
      --workload counter --threads 4 --stats-json "$out" \
      | grep -q "backend: $be" || {
      echo "lktm-sim --backend $be did not report backend: $be" >&2
      return 1
    }
    "$bdir/tools/validate_stats_json" "$out"
  done
  if "$bdir/tools/lktm-sim" --backend vaporware --workload counter \
      --threads 2 >/dev/null 2>"$bdir/backend_reject.txt"; then
    echo "lktm-sim accepted an unknown backend name" >&2
    return 1
  fi
  grep -q "lockiller" "$bdir/backend_reject.txt" || {
    echo "unknown-backend rejection lacks the valid-name list" >&2
    return 1
  }
}
run_backend_smoke build

echo "== model checker: TL2 commit footprint (stm-commit, exhaustive) =="
./build/tools/lktm_check --config stm-commit --depth 4000 | grep -q "CLEAN" \
  || { echo "stm-commit not clean" >&2; exit 1; }

echo "== lktm_lint: seeded-violation self-test =="
# Mirrors lktm_check --inject-bug: every rule's planted violation must be
# caught and its clean twin must stay quiet.
./build/tools/lktm_lint --self-test >/dev/null

echo "== lktm_lint: src/ + tools/ must be clean (emit + validate artifact) =="
./build/tools/lktm_lint --root . --json build/lint_check.json --quiet src tools
./build/tools/validate_stats_json build/lint_check.json

echo "== large-core smoke: 128-core banked directory (needs bigcores build) =="
run_bigcore_smoke() {
  # $1 = build dir. A 64-core-capped build must *reject* the 128-core machine
  # with a clear diagnostic; a bigcores build must run it end to end with the
  # coherence checker on and produce a valid artifact carrying the new
  # cores/banks metadata.
  local bdir="$1" out
  out="$bdir/bigcore_check.json"
  if "$bdir/tools/lktm-sim" --list | grep -q "up to 64 cores"; then
    if "$bdir/tools/lktm-sim" --machine typical-c128-b8 --workload counter \
        --threads 8 >/dev/null 2>"$bdir/bigcore_reject.txt"; then
      echo "64-core build accepted a 128-core machine" >&2
      return 1
    fi
    grep -q "LKTM_MAX_CORES" "$bdir/bigcore_reject.txt" || {
      echo "128-core rejection lacks the rebuild hint" >&2
      return 1
    }
    echo "  (64-core build: verified the clear rejection diagnostic)"
  else
    "$bdir/tools/lktm-sim" --machine typical --cores 128 --banks 8 \
      --system LockillerTM --workload counter --threads 96 \
      --stats-json "$out" >/dev/null
    "$bdir/tools/validate_stats_json" "$out"
    echo "  (128-core banked run completed and validated)"
  fi
}
run_bigcore_smoke build

echo "== model checker: banked directory (2-bank configs, bounded) =="
run_banked_check() {
  # $1 = build dir. The 2-bank configs must be exhaustively clean, and the
  # swmr-skip-inv plant must still be caught across bank boundaries.
  local bdir="$1"
  "$bdir/tools/lktm_check" --config tl-overflow-2b --max-states 200000 \
    | grep -q "CLEAN" || { echo "tl-overflow-2b not clean" >&2; return 1; }
  "$bdir/tools/lktm_check" --config 3c2l-2b --max-states 200000 \
    | grep -q "CLEAN" || { echo "3c2l-2b not clean" >&2; return 1; }
  if "$bdir/tools/lktm_check" --config 3c2l-2b --inject-bug swmr-skip-inv \
      --max-states 200000 | grep -q "CLEAN"; then
    echo "3c2l-2b missed the injected swmr bug" >&2
    return 1
  fi
}
run_banked_check build

echo "== sweep orchestrator: smoke + interrupt/resume + bit-identical merge =="
run_sweep_smoke() {
  # $1 = build dir. Plan a smoke sweep, run it interrupted (3 jobs), resume,
  # merge; then run the same sweep uninterrupted on more host threads and
  # require a byte-identical merged artifact. Validates both schemas.
  local bdir="$1" d
  d="$bdir/sweep_check"
  rm -rf "$d" && mkdir -p "$d/a" "$d/b"
  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/a/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/a/sweep.json" --max-jobs 3 --quiet >/dev/null || true
  "$bdir/tools/lktm_sweep" run --manifest "$d/a/sweep.json" --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/a/sweep.json" --out "$d/a/merged.json" >/dev/null
  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/b/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/b/sweep.json" --host-threads 4 --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/b/sweep.json" --out "$d/b/merged.json" >/dev/null
  cmp "$d/a/merged.json" "$d/b/merged.json"
  "$bdir/tools/validate_stats_json" "$d/a/sweep.json" "$d/a/merged.json" "$d/a/sweep.json.d"/*.json
}
run_sweep_smoke build

echo "== distributed sweep: 3 workers, SIGKILL one mid-run, bit-identical merge =="
run_distrib_smoke() {
  # $1 = build dir. The tentpole guarantee end to end: a single-process run
  # is the reference; then 3 'work' processes share one claim spool, one of
  # them (slowed so it is reliably mid-job) is SIGKILLed, the survivors must
  # reclaim its job after the heartbeat lease expires, and the merged
  # artifact must cmp equal to the reference. Validates manifest v2, the
  # merged document and the lktm.summary.v1 companion.
  local bdir="$1" d w1 w2 w3
  d="$bdir/distrib_check"
  rm -rf "$d" && mkdir -p "$d/single" "$d/multi"

  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/single/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/single/sweep.json" --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/single/sweep.json" \
    --out "$d/single/merged.json" >/dev/null

  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/multi/sweep.json" \
    --shards 3 >/dev/null
  # The victim crawls (1s per job) so the SIGKILL lands while it holds a
  # claim; the survivors are fast and then wait out the 1s heartbeat lease.
  LKTM_SWEEP_JOB_DELAY_MS=1000 "$bdir/tools/lktm_sweep" work \
    --manifest "$d/multi/sweep.json" --worker-id victim --shard 0 \
    --host-threads 1 --heartbeat 0.1 --lease 1 --poll 0.05 --quiet \
    >/dev/null 2>&1 &
  w1=$!
  LKTM_SWEEP_JOB_DELAY_MS=50 "$bdir/tools/lktm_sweep" work \
    --manifest "$d/multi/sweep.json" --worker-id surv-a --shard 1 \
    --host-threads 1 --heartbeat 0.1 --lease 1 --poll 0.05 \
    >/dev/null 2>"$d/multi/surv-a.log" &
  w2=$!
  LKTM_SWEEP_JOB_DELAY_MS=50 "$bdir/tools/lktm_sweep" work \
    --manifest "$d/multi/sweep.json" --worker-id surv-b --shard 2 \
    --host-threads 1 --heartbeat 0.1 --lease 1 --poll 0.05 \
    >/dev/null 2>"$d/multi/surv-b.log" &
  w3=$!
  sleep 0.6
  kill -9 "$w1" 2>/dev/null || true
  wait "$w1" 2>/dev/null || true
  wait "$w2"   # survivors must finish the whole sweep, exit 0
  wait "$w3"

  grep -hq "reclaimed .* from dead worker" "$d/multi/surv-a.log" \
      "$d/multi/surv-b.log" || {
    echo "no survivor reclaimed the SIGKILLed worker's job" >&2
    return 1
  }
  "$bdir/tools/lktm_sweep" merge --manifest "$d/multi/sweep.json" \
    --out "$d/multi/merged.json" --summary "$d/multi/summary.json" >/dev/null
  cmp "$d/single/merged.json" "$d/multi/merged.json"
  "$bdir/tools/validate_stats_json" "$d/multi/sweep.json" \
    "$d/multi/merged.json" "$d/multi/summary.json"
  echo "  (3-worker sweep with a SIGKILLed+reclaimed worker merged bit-identical)"
}
run_distrib_smoke build

echo "== database traffic: ycsb tail latency + table3 grid bit-identical merges =="
run_dbtraffic_smoke() {
  # $1 = build dir. The tail-latency acceptance checks: ycsb on the TL2
  # backend must report commit-latency percentiles and emit an artifact that
  # validates against lktm.stats.v1 (with the p999 field present), and the
  # table3-dbtraffic grid must merge bit-identically whether run on 1 host
  # thread, 4 host threads, or split across 2 distributed workers.
  local bdir="$1" d wa wb
  d="$bdir/dbtraffic_check"
  rm -rf "$d" && mkdir -p "$d/h1" "$d/h4" "$d/dist"
  "$bdir/tools/lktm-sim" --system LockillerTM --backend tl2 --workload ycsb \
    --threads 4 --stats-json "$d/ycsb.json" | grep -q "latency p99" || {
    echo "lktm-sim ycsb/tl2 did not report commit-latency percentiles" >&2
    return 1
  }
  "$bdir/tools/validate_stats_json" "$d/ycsb.json"
  grep -q '"p999"' "$d/ycsb.json" || {
    echo "ycsb artifact lacks the p999 commit-latency field" >&2
    return 1
  }
  "$bdir/tools/lktm_sweep" plan --preset table3-dbtraffic \
    --manifest "$d/h1/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/h1/sweep.json" \
    --host-threads 1 --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/h1/sweep.json" \
    --out "$d/h1/merged.json" >/dev/null
  "$bdir/tools/lktm_sweep" plan --preset table3-dbtraffic \
    --manifest "$d/h4/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/h4/sweep.json" \
    --host-threads 4 --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/h4/sweep.json" \
    --out "$d/h4/merged.json" >/dev/null
  cmp "$d/h1/merged.json" "$d/h4/merged.json"
  "$bdir/tools/lktm_sweep" plan --preset table3-dbtraffic \
    --manifest "$d/dist/sweep.json" --shards 2 >/dev/null
  "$bdir/tools/lktm_sweep" work --manifest "$d/dist/sweep.json" \
    --worker-id db-a --shard 0 --quiet >/dev/null &
  wa=$!
  "$bdir/tools/lktm_sweep" work --manifest "$d/dist/sweep.json" \
    --worker-id db-b --shard 1 --quiet >/dev/null &
  wb=$!
  wait "$wa"
  wait "$wb"
  "$bdir/tools/lktm_sweep" merge --manifest "$d/dist/sweep.json" \
    --out "$d/dist/merged.json" --summary "$d/dist/summary.json" >/dev/null
  cmp "$d/h1/merged.json" "$d/dist/merged.json"
  "$bdir/tools/validate_stats_json" "$d/dist/sweep.json" \
    "$d/dist/merged.json" "$d/dist/summary.json"
  echo "  (db grid: 1-thread, 4-thread and 2-worker merges all bit-identical)"
}
run_dbtraffic_smoke build

echo "== size guard: no bulk artifacts in bench/ (256 KiB per-file cap) =="
# The raw bigcores grids were 8/16 MB; only their lktm.summary.v1 condensates
# (a few tens of KB) belong in the tree.
if find bench -type f -size +262144c | grep .; then
  echo "bench/ contains files over 256 KiB (see above) — commit summaries, not raw grids" >&2
  exit 1
fi

echo "== configure + build: trace (LKTM_TRACE=ON) =="
cmake --preset trace >/dev/null
cmake --build build-trace -j "$JOBS"

echo "== ctest: trace (full suite with tracing compiled in) =="
ctest --preset trace

echo "== configure + build: tsan (ThreadSanitizer) =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_sweep test_distrib

echo "== ctest: tsan (host-parallel sweep layer under ThreadSanitizer) =="
ctest --preset tsan

echo "== configure + build: sanitize (ASan + UBSan) =="
cmake --preset sanitize >/dev/null
cmake --build build-sanitize -j "$JOBS"

echo "== ctest: sanitize (full suite incl. fuzz + coherence replay) =="
ctest --preset sanitize

echo "== ctest: model checker (sanitize) =="
ctest --preset verify-sanitize

echo "== sweep orchestrator: smoke + resume under ASan/UBSan =="
run_sweep_smoke build-sanitize

echo "== distributed sweep: kill/reclaim/merge under ASan/UBSan =="
run_distrib_smoke build-sanitize

echo "== database traffic smoke under ASan/UBSan =="
run_dbtraffic_smoke build-sanitize

echo "== large-core smoke + banked model checker under ASan/UBSan =="
run_bigcore_smoke build-sanitize
run_banked_check build-sanitize

echo "== TM backends smoke under ASan/UBSan =="
run_backend_smoke build-sanitize

echo "== bigcores grid: 128-core sweep split across 2 worker processes =="
# Build only the sweep tools of the bigcores preset (LKTM_MAX_CORES=256) and
# re-run the committed fig07 128-core grid as a 2-worker distributed sweep.
# Every job must end ok, both workers must have finished jobs, and the
# regenerated lktm.summary.v1 must cmp equal to the committed artifact —
# the strongest cross-check that the distributed path reproduces the grid
# the single-process PR-6 run produced.
cmake --preset bigcores >/dev/null
cmake --build build-bigcores -j "$JOBS" --target lktm_sweep validate_stats_json
d="build-bigcores/bigcores_distrib_check"
rm -rf "$d" && mkdir -p "$d"
build-bigcores/tools/lktm_sweep plan --preset bigcores-128 \
  --manifest "$d/bc.json" --shards 2 >/dev/null
build-bigcores/tools/lktm_sweep work --manifest "$d/bc.json" \
  --worker-id grid-a --shard 0 --quiet >/dev/null &
WA=$!
build-bigcores/tools/lktm_sweep work --manifest "$d/bc.json" \
  --worker-id grid-b --shard 1 --quiet >/dev/null &
WB=$!
wait "$WA"   # exit 0 iff the whole grid is complete && all ok
wait "$WB"
for w in grid-a grid-b; do
  grep -lq "\"worker\":\"$w\"" "$d/bc.json.claims/done"/* || {
    echo "bigcores grid was not split: $w finished no jobs" >&2
    exit 1
  }
done
build-bigcores/tools/lktm_sweep merge --manifest "$d/bc.json" \
  --out "$d/merged.json" --summary "$d/summary.json" >/dev/null
cmp "$d/summary.json" bench/bigcores/fig07_bigcores_128_summary.json
build-bigcores/tools/validate_stats_json "$d/bc.json" "$d/merged.json" \
  "$d/summary.json"
echo "  (36-job 128-core grid split 2 ways, all ok, summary matches committed)"

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== configure + build: release (benchmarks) =="
  cmake --preset release >/dev/null
  cmake --build build-release -j "$JOBS"

  echo "== benchmark gate: bench_kernel (writes BENCH_kernel.json) =="
  cmake --build build-release --target bench_kernel
fi

echo "== all checks passed =="
