#!/usr/bin/env bash
# One-command pre-merge check: build the default and sanitize presets, run the
# full test suite under both (tier-1 plus the fuzz and coherence-replay
# determinism tests under ASan+UBSan), run the model-checker suite (ctest -L
# verify: exhaustive lktm_check sweeps + test_verify) under both presets, run
# clang-tidy over src/ when the tool is installed, validate a --stats-json
# artifact against the lktm.stats.v1 schema (and require a hand-edited p99 to
# be rejected), smoke the 128-core banked
# directory path and verify that a 513-core machine is rejected with the
# 512-core limit, run the bounded 2-bank model-checker configs (clean + the
# swmr-skip-inv plant must still be caught), smoke the lktm_sweep orchestrator
# (interrupt + resume must merge bit-identical to an uninterrupted run,
# `status` must report the interrupted run's progress, and merge must exit 1
# and write nothing for a corrupted per-job p99 or an all-timeout sweep,
# under the default and sanitize builds), run the end-to-end benchmark's smoke mode
# (bench/e2e/run.sh --smoke: its fingerprint gate pins the simulated results
# of all four benchmark workloads), rerun paper_figures (every paper table
# and figure and the design-choice ablations, from one run of the `figures`
# preset) and cmp its stdout against the committed pin in bench/product/ (the
# simulated results are the product), smoke the database-traffic family (ycsb
# on the TL2 backend must emit validating commit-latency percentiles; the
# table3-dbtraffic grid must merge bit-identically across 1 and 4 host
# threads — default and sanitize builds), enforce the bench/ artifact size
# cap, re-run the committed 128-core fig07 grid on 2 host threads and the
# 256-core grid on the default thread count, both on the default build (each
# summary must cmp equal to the committed lktm.summary.v1), run the
# lktm_lint determinism linter (self-test must catch every planted
# violation; src/ and tools/ must be clean), build the TSan preset and run
# the host-parallel sweep tests under ThreadSanitizer, then build the
# release tree and run the gated kernel microbenchmarks (writes
# BENCH_kernel.json; fails if any gated benchmark regresses below the
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

echo "== validator bites: a hand-edited derived p99 must be rejected =="
# The reader recomputes the derived block from the run's stats, so a p99
# raised to the p999 value (the percentiles still ascend) must fail
# validation with exit 1.
p999="$(sed -nE 's/.*"p999": ([0-9]+).*/\1/p' build/stats_check.json)"
sed -E "s/\"p99\": [0-9]+/\"p99\": $p999/" build/stats_check.json \
  > build/stats_check_bad.json
cmp -s build/stats_check.json build/stats_check_bad.json && {
  echo "the p99 rewrite changed nothing" >&2
  exit 1
}
set +e
./build/tools/validate_stats_json build/stats_check_bad.json 2>/dev/null
status=$?
set -e
if [[ "$status" != 1 ]]; then
  echo "validate_stats_json exited $status on a corrupted p99 (want 1)" >&2
  exit 1
fi

echo "== TM backends: each backend's system row runs + validates =="
run_backend_smoke() {
  # $1 = build dir. The system row names the backend: each backend's row must
  # run a small workload end to end (workload invariants + coherence checker
  # on), report its own backend in the run metadata, and emit a valid
  # lktm.stats.v1 artifact. There is no other way to pick a backend:
  # --backend and a -be= machine suffix must both exit 2.
  local bdir="$1" row system be out status
  for row in CGL:cgl LockillerTM:lockiller TL2-STM:tl2 Hybrid-TM:hybrid; do
    system="${row%%:*}"
    be="${row##*:}"
    out="$bdir/backend_${be}_check.json"
    "$bdir/tools/lktm-sim" --system "$system" \
      --workload counter --threads 4 --stats-json "$out" \
      | grep -q "backend: $be" || {
      echo "lktm-sim --system $system did not report backend: $be" >&2
      return 1
    }
    "$bdir/tools/validate_stats_json" "$out"
  done
  for args in "--backend tl2" "--machine typical-be=tl2"; do
    status=0
    # shellcheck disable=SC2086  # $args is two words on purpose
    "$bdir/tools/lktm-sim" $args --workload counter --threads 2 \
      >/dev/null 2>"$bdir/backend_reject.txt" || status=$?
    if [[ "$status" != 2 ]]; then
      echo "lktm-sim $args exited $status (want 2)" >&2
      return 1
    fi
  done
}
run_backend_smoke build

echo "== end-to-end benchmark: smoke cells + fingerprint gate (bench/e2e) =="
# Two cells per workload, with and without tracing; each must match the
# committed fingerprints (expected_seed11.json) and print the metric names
# BENCHMARK.json declares.
bash bench/e2e/run.sh --smoke

echo "== product pin: paper_figures stdout vs bench/product/ =="
# Every bench/ binary except the micro_substrates microbenchmarks prints
# simulated results; today that is paper_figures alone: every paper table and
# figure, then the design-choice ablations (it exits nonzero if any cell
# fails). Each must print exactly its committed bench/product/<binary>.txt,
# and every pin must have its binary. A change that moves a result
# regenerates the pin (EXPERIMENTS.md, "Regeneration").
d="build/product_check"
rm -rf "$d" && mkdir -p "$d"
for b in $(find build/bench -maxdepth 1 -type f -executable \
             ! -name micro_substrates -printf '%f\n' | sort); do
  [[ -f "bench/product/$b.txt" ]] || {
    echo "bench binary $b has no pinned output bench/product/$b.txt" >&2
    exit 1
  }
  "build/bench/$b" > "$d/$b.txt"
  cmp "$d/$b.txt" "bench/product/$b.txt"
done
for f in bench/product/*.txt; do
  [[ -f "$d/$(basename "$f")" ]] || { echo "$f has no bench binary" >&2; exit 1; }
done
echo "  ($(ls "$d" | wc -l) bench outputs match bench/product/)"

echo "== model checker: TL2 commit footprint (stm-commit, exhaustive) =="
./build/tools/lktm_check --config stm-commit --depth 4000 | grep -q "CLEAN" \
  || { echo "stm-commit not clean" >&2; exit 1; }

echo "== lktm_lint: seeded-violation self-test =="
# Mirrors lktm_check --inject-bug: every rule's planted violation must be
# caught and its clean twin must stay quiet.
./build/tools/lktm_lint --self-test >/dev/null

echo "== lktm_lint: src/ + tools/ must be clean =="
./build/tools/lktm_lint --root . --quiet src tools

echo "== large-core smoke: 128-core banked directory + 513-core rejection =="
run_bigcore_smoke() {
  # $1 = build dir. The 128-core banked machine must run end to end with the
  # coherence checker on and produce a valid artifact carrying the
  # cores/banks metadata; a 513-core machine must be rejected with a
  # diagnostic naming the 512-core limit.
  local bdir="$1" out
  out="$bdir/bigcore_check.json"
  "$bdir/tools/lktm-sim" --machine typical-c128-b8 \
    --system LockillerTM --workload counter --threads 96 \
    --stats-json "$out" >/dev/null
  "$bdir/tools/validate_stats_json" "$out"
  echo "  (128-core banked run completed and validated)"
  if "$bdir/tools/lktm-sim" --machine typical-c513-b8 --workload counter \
      --threads 8 >/dev/null 2>"$bdir/bigcore_reject.txt"; then
    echo "lktm-sim accepted a 513-core machine" >&2
    return 1
  fi
  grep -q "limit of 512 cores" "$bdir/bigcore_reject.txt" || {
    echo "513-core rejection does not name the 512-core limit" >&2
    return 1
  }
  echo "  (513-core machine rejected with the 512-core limit)"
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
  # $1 = build dir. Plan a smoke sweep, run it interrupted (3 jobs), check
  # that status reports the progress, resume, merge; then run the same sweep
  # uninterrupted on more host threads and require a byte-identical merged
  # artifact. Validates both schemas.
  local bdir="$1" d
  d="$bdir/sweep_check"
  rm -rf "$d" && mkdir -p "$d/a" "$d/b"
  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/a/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/a/sweep.json" --max-jobs 3 --quiet >/dev/null || true
  "$bdir/tools/lktm_sweep" status --manifest "$d/a/sweep.json" | grep -q '^\[3/8\] done' || {
    echo "status after 'run --max-jobs 3' does not report [3/8] done" >&2
    return 1
  }
  "$bdir/tools/lktm_sweep" run --manifest "$d/a/sweep.json" --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/a/sweep.json" --out "$d/a/merged.json" >/dev/null
  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/b/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/b/sweep.json" --host-threads 4 --quiet >/dev/null
  "$bdir/tools/lktm_sweep" merge --manifest "$d/b/sweep.json" --out "$d/b/merged.json" >/dev/null
  cmp "$d/a/merged.json" "$d/b/merged.json"
  "$bdir/tools/validate_stats_json" "$d/a/sweep.json" "$d/a/merged.json" "$d/a/sweep.json.d"/*.json
  # Merge bites: merge reads every per-job artifact with the schema reader,
  # so a p99 hand-set to its p999 (now that b is merged and checked) must
  # make it exit 1 and leave no --out file; so must a sweep whose jobs all
  # timed out, which has no run to merge.
  local f="$d/b/sweep.json.d/Baseline_bank_typical_2_11.json" p999
  p999="$(sed -n 's/^ *"p999": \([0-9]*\)$/\1/p' "$f")"
  sed -i "s/\"p99\": [0-9]*,/\"p99\": $p999,/" "$f"
  if [[ -z "$p999" ]] || "$bdir/tools/validate_stats_json" "$f" >/dev/null 2>&1; then
    echo "the corrupted p99 in $f did not bite" >&2
    return 1
  fi
  if "$bdir/tools/lktm_sweep" merge --manifest "$d/b/sweep.json" \
      --out "$d/b/bad.json" >/dev/null 2>&1 || [[ -e "$d/b/bad.json" ]]; then
    echo "merge accepted an artifact whose p99 is its p999" >&2
    return 1
  fi
  mkdir -p "$d/c"
  "$bdir/tools/lktm_sweep" plan --preset smoke --manifest "$d/c/sweep.json" >/dev/null
  "$bdir/tools/lktm_sweep" run --manifest "$d/c/sweep.json" --cycle-budget 10 \
    --quiet >/dev/null 2>&1 || true
  if "$bdir/tools/lktm_sweep" merge --manifest "$d/c/sweep.json" \
      --out "$d/c/merged.json" --summary "$d/c/summary.json" >/dev/null 2>&1 ||
      [[ -e "$d/c/merged.json" || -e "$d/c/summary.json" ]]; then
    echo "merge of an all-timeout sweep did not fail cleanly" >&2
    return 1
  fi
}
run_sweep_smoke build

echo "== database traffic: ycsb tail latency + table3 grid bit-identical merges =="
run_dbtraffic_smoke() {
  # $1 = build dir. The tail-latency acceptance checks: ycsb on the TL2
  # backend must report commit-latency percentiles and emit an artifact that
  # validates against lktm.stats.v1 (with the p999 field present), and the
  # table3-dbtraffic grid must merge bit-identically whether run on 1 host
  # thread or 4.
  local bdir="$1" d
  d="$bdir/dbtraffic_check"
  rm -rf "$d" && mkdir -p "$d/h1" "$d/h4"
  "$bdir/tools/lktm-sim" --system TL2-STM --workload ycsb \
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
    --out "$d/h4/merged.json" --summary "$d/h4/summary.json" >/dev/null
  cmp "$d/h1/merged.json" "$d/h4/merged.json"
  "$bdir/tools/validate_stats_json" "$d/h4/sweep.json" \
    "$d/h4/merged.json" "$d/h4/summary.json"
  echo "  (db grid: 1-thread and 4-thread merges bit-identical)"
}
run_dbtraffic_smoke build

echo "== size guard: no bulk artifacts in bench/ (256 KiB per-file cap) =="
# The raw bigcores grids were 8/16 MB; only their lktm.summary.v1 condensates
# (a few tens of KB) belong in the tree.
if find bench -type f -size +262144c | grep .; then
  echo "bench/ contains files over 256 KiB (see above) — commit summaries, not raw grids" >&2
  exit 1
fi

echo "== configure + build: tsan (ThreadSanitizer) =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_sweep

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

echo "== database traffic smoke under ASan/UBSan =="
run_dbtraffic_smoke build-sanitize

echo "== large-core smoke + banked model checker under ASan/UBSan =="
run_bigcore_smoke build-sanitize
run_banked_check build-sanitize

echo "== TM backends smoke under ASan/UBSan =="
run_backend_smoke build-sanitize

echo "== bigcores grid: 128-core sweep on 2 host threads =="
# Re-run the committed fig07 128-core grid from the default build on 2 host
# threads. Every job must end ok and the regenerated lktm.summary.v1 must cmp
# equal to the committed artifact.
d="build/bigcores128_check"
rm -rf "$d" && mkdir -p "$d"
build/tools/lktm_sweep plan --preset bigcores-128 --manifest "$d/bc.json" >/dev/null
build/tools/lktm_sweep run --manifest "$d/bc.json" --host-threads 2 --quiet
build/tools/lktm_sweep merge --manifest "$d/bc.json" \
  --out "$d/merged.json" --summary "$d/summary.json" >/dev/null
cmp "$d/summary.json" bench/bigcores/fig07_bigcores_128_summary.json
build/tools/validate_stats_json "$d/bc.json" "$d/merged.json" \
  "$d/summary.json"
echo "  (36-job 128-core grid on 2 host threads, all ok, summary matches committed)"

echo "== bigcores grid: 256-core sweep in one process =="
d="build/bigcores256_check"
rm -rf "$d" && mkdir -p "$d"
build/tools/lktm_sweep plan --preset bigcores-256 --manifest "$d/bc.json" >/dev/null
build/tools/lktm_sweep run --manifest "$d/bc.json" --quiet
build/tools/lktm_sweep merge --manifest "$d/bc.json" \
  --out "$d/merged.json" --summary "$d/summary.json" >/dev/null
cmp "$d/summary.json" bench/bigcores/fig07_bigcores_256_summary.json
build/tools/validate_stats_json "$d/bc.json" "$d/merged.json" "$d/summary.json"
echo "  (36-job 256-core grid all ok, summary matches committed)"

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== configure + build: release (benchmarks) =="
  cmake --preset release >/dev/null
  cmake --build build-release -j "$JOBS"

  echo "== benchmark gate: bench_kernel (writes BENCH_kernel.json) =="
  cmake --build build-release --target bench_kernel
fi

echo "== all checks passed =="
