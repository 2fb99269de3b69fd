#!/usr/bin/env bash
# Sanitizer gate: configures a build with
# E2E_SANITIZE=address,undefined,float-cast-overflow, builds, and runs the
# scenario-, bench-smoke-, timesvc-, admission- and analysis-labelled
# tests under it. Catches the lifetime bugs the executor's engine
# recycling and cross-cell reuse could introduce, out-of-bounds access in
# the in-place interference-map compaction, and out-of-range
# float-to-integer casts (GCC's `undefined` group leaves that check out).
#
# Usage: tools/check.sh
#   CHECK_BUILD_DIR (default: build-check) -- sanitizer build tree
#   PERF_BUILD_DIR  (default: build)       -- unsanitized tree for the gate
#   JOBS            (default: nproc)       -- build parallelism
#   E2E_BENCH_GATE  (default: unset)       -- when set (and not 0), also run
#                     the perf-labelled thread-scaling gates. The gate
#                     self-skips on hosts with < 4 hardware threads (a
#                     1-CPU CI box times oversubscription, not scaling).
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK_BUILD_DIR="${CHECK_BUILD_DIR:-build-check}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "${CHECK_BUILD_DIR}" -S . -DE2E_SANITIZE=address,undefined,float-cast-overflow
cmake --build "${CHECK_BUILD_DIR}" -j "${JOBS}"
# UBSan checks recover by default: make the first report fail its test.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
ctest --test-dir "${CHECK_BUILD_DIR}" --output-on-failure \
  -L "scenario|bench-smoke|timesvc|admission|analysis"

# Opt-in scaling gate, run against an unsanitized tree: wall-clock under
# ASan/UBSan says nothing about real scaling, so the gate deliberately
# uses a plain build.
if [[ -n "${E2E_BENCH_GATE:-}" && "${E2E_BENCH_GATE}" != "0" ]]; then
  PERF_BUILD_DIR="${PERF_BUILD_DIR:-build}"
  cmake -B "${PERF_BUILD_DIR}" -S .
  cmake --build "${PERF_BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${PERF_BUILD_DIR}" --output-on-failure -L perf
fi
