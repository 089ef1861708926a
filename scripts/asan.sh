#!/usr/bin/env bash
# Address+UB sanitizer run for the fault-injection and recovery paths: the
# chaos soak (faults + crashes + degraded-mode resync), the layers whose
# error-handling branches the fault registry exercises (scribe, lsm, hdfs,
# zippydb), the core node/checkpoint machinery, the socket Scribe transport
# (framing, reconnect, partition modes), the supervisor (fork/exec,
# fencing, heartbeat timeout verdicts), the query serving layer
# (compiled-expression closures, block scans, Laser's reused read buffers),
# the leveled LSM (MANIFEST decode of torn/corrupt/unknown-format input,
# compaction-output cleanup on preemption, deferred file GC), and the
# seeded decoder fuzz sweeps (MANIFEST, SST open, Scribe segment replay).
#
# Usage: scripts/asan.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DFBSTREAM_ASAN=ON
cmake --build "$BUILD_DIR" -j --target \
  common_test scribe_test remote_scribe_test cluster_test lsm_test \
  lsm_leveled_test hdfs_test zippydb_test stylus_test \
  continuous_pipeline_test chaos_test crash_recovery_test query_serving_test \
  fuzz_test

for t in common_test scribe_test remote_scribe_test cluster_test lsm_test \
         lsm_leveled_test hdfs_test zippydb_test stylus_test \
         continuous_pipeline_test chaos_test crash_recovery_test \
         query_serving_test fuzz_test; do
  echo "== ASan: $t =="
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$BUILD_DIR/tests/$t"
done
echo "ASan suite passed."
