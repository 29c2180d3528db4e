#!/usr/bin/env bash
# Re-records the committed baselines, each exactly the JSON lines that
# `disp_bench --jsonl` writes:
#
#   BENCH_table1.jsonl      the five Table 1 sweeps (facts)
#   BENCH_faults.jsonl      the E20 self-stabilization scorecard (facts)
#   BENCH_scale_real.jsonl  the E19 web-scale memory campaign (telemetry:
#                           peak RSS and load wallclock, never gated)
#
#   scripts/record_bench_baseline.sh [build_dir]
#
# The fact baselines are seed-deterministic, so any machine re-records
# them byte for byte and scripts/compare_bench_baseline.sh diffs fresh
# runs against them.  Each baseline is replaced only when its runs
# succeed.  Run scripts/make_scale_data.sh first so scale_real includes
# the 10^7-node file cells (they are skipped with a note otherwise).
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cd "${REPO_ROOT}"
if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
  echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
       "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi

PART="$(mktemp)"
trap 'rm -f "${PART}" BENCH_*.jsonl.new' EXIT
rm -f BENCH_*.jsonl.new

# add OUT ARGS...: appends the JSON lines of `disp_bench ARGS` to OUT.new.
add() {
  local out="$1"
  shift
  "${BUILD_DIR}/disp_bench" "$@" --jsonl="${PART}" > /dev/null
  cat "${PART}" >> "${out}.new"
}
# keep OUT: moves the finished OUT.new over the baseline OUT.
keep() {
  mv "$1.new" "$1"
  echo "wrote $1 ($(wc -l < "$1") lines)"
}

add BENCH_table1.jsonl table1_sync_rooted table1_sync_general \
    table1_async_rooted table1_async_general table1_memory
keep BENCH_table1.jsonl

add BENCH_faults.jsonl faults
keep BENCH_faults.jsonl

# One disp_bench process per graph: a k = 2^20 campaign leaves the heap too
# fragmented for the probe's malloc_trim to compact (a million freed fiber
# frames), so in a shared process the first graph's slack floors every later
# graph's watermark.  Keep the list in sync with the benches_scale.cpp
# defaults.
for spec in "er:fast=1,n=1048576" "ba:n=1048576" "rmat:n=1048576" \
            "file:bench/data/ba_1e7.e"; do
  add BENCH_scale_real.jsonl scale_real --graphs="${spec}" --threads=1
done
keep BENCH_scale_real.jsonl
