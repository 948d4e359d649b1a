#!/usr/bin/env bash
# One-shot tier-1 verify: configure, build everything (library, tests,
# benches, examples) with warnings-as-errors, then run the full test suite.
# This mirrors .github/workflows/ci.yml exactly; if this passes locally,
# CI should be green.
#
# Usage: scripts/check.sh [--tsan|--asan|--torture|--uring] [build-dir]
#   default:  full build + full test suite in ./build
#   --tsan:   rebuild with -fsanitize=thread in ./build-tsan (or the given
#             build dir) and run the concurrency test suites under
#             ThreadSanitizer — the data-race gate for ShardedStore, the
#             lock-free PageTable, the per-shard async seal pipeline
#             (AsyncSeal* cases in tests/core/sharded_store_test.cc), the
#             latch-striped buffer pool (BufferPoolParallel*, which
#             includes the latch-free CLOCK hit-path stress), the
#             latch-coupled B+-tree (BTreeParallel*: N-writer/M-reader
#             stress and delete-churn over one shared tree), the
#             multi-worker TPC-C engine (TpccParallel*) and parallel
#             trace replay (TraceReplayParallel*).
#   --asan:   rebuild with -fsanitize=address,undefined in ./build-asan
#             (or the given build dir) and run the FULL test suite — the
#             memory-safety gate for the raw-I/O backend (pwrite buffers,
#             recovery scans, O_DIRECT alignment) and everything else.
#   --torture: normal build, then the crash-recovery torture harness
#             (tests/integration/crash_recovery_test.cc) with extra
#             randomized kill points per geometry (LSS_TORTURE_ITERS,
#             default 600 here vs 200 in the tier-1 run). Every
#             geometry audits strict zero-loss — there is no tolerated
#             residual window — and the diverting geometries fail
#             unless withheld-slot reuse goes through entry re-homing
#             (withheld_slot_reuses_rehomed; a plain reuse of a slot
#             with still-needed entries cannot happen by construction
#             and any loss it would cause fails the audit).
#   --uring:  normal build, then the io_uring gate: the backend parity
#             suite (byte-identical durable state vs the file backend),
#             the uring crash-recovery torture geometry, and a bench
#             smoke through LSS_BENCH_BACKEND=uring:... asserting the
#             ring actually activated. When the kernel or seccomp
#             disallows io_uring this mode REPORTS the probe's reason
#             and exits 0 (the tests skip themselves; the smoke falls
#             back to synchronous pwrite) — availability is a property
#             of the host, not of the code under test.
set -euo pipefail

cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
TORTURE=0
URING=0
if [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--torture" ]]; then
  TORTURE=1
  shift
elif [[ "${1:-}" == "--uring" ]]; then
  URING=1
  shift
fi

if [[ $TSAN -eq 1 ]]; then
  BUILD_DIR="${1:-build-tsan}"
elif [[ $ASAN -eq 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
elif [[ $TORTURE -eq 1 ]]; then
  # Own build dir: the bench/example-OFF cache values must not poison
  # the tier-1 ./build.
  BUILD_DIR="${1:-build-torture}"
else
  # --uring shares the tier-1 build (same flags, benches ON).
  BUILD_DIR="${1:-build}"
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ $TSAN -eq 1 ]]; then
  # Benches and examples are irrelevant to the race check; skipping them
  # keeps the instrumented build quick.
  cmake -B "$BUILD_DIR" -S . -DLSS_TSAN=ON \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # TSAN_OPTIONS makes any reported race fail the run even if the test
  # binary would otherwise exit 0. The suppression file silences only
  # the false-positive potential-deadlock report on recycled buffer-pool
  # frame latches (rationale in scripts/tsan.supp); races stay fatal.
  # 'Parallel' already covers BTreeParallel/BufferPoolParallel/
  # TpccParallel/TraceReplayParallel; they are named anyway so the
  # gate's scope is explicit.
  TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'Sharded|PageTableConcurrency|Parallel|AsyncSeal|BTreeParallel|BufferPoolParallel|TpccParallel|TraceReplayParallel'
  echo "check.sh: tsan green"
  exit 0
fi

if [[ $TORTURE -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  LSS_TORTURE_ITERS="${LSS_TORTURE_ITERS:-600}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R 'CrashRecovery'
  echo "check.sh: torture green"
  exit 0
fi

if [[ $ASAN -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . -DLSS_ASAN=ON \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # abort_on_error turns any leak/overflow/UB report into a test failure.
  ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  echo "check.sh: asan green"
  exit 0
fi

if [[ $URING -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # Parity suite + fallback contract + the uring torture geometry. On a
  # host without io_uring the UringParity*/TortureUringBackend cases
  # GTEST_SKIP with the probe's reason and UringBackendWorksWithOrWithout-
  # Ring pins the pwrite fallback — so this pass is green either way.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R 'Uring|BackendSpec' --timeout 1800
  # Bench smoke through the ring: the checkpoint sweep with the uring
  # backend must keep its byte-exact device accounting. Ring activation
  # is a host property, so its absence is reported, not failed.
  URING_TMP="$(mktemp -d "${TMPDIR:-/tmp}/lss_uring_check_XXXXXX")"
  trap 'rm -rf "$URING_TMP"' EXIT
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_BACKEND="uring:$URING_TMP" \
    LSS_BENCH_IO_DIR="$URING_TMP" \
    LSS_BENCH_JSON="$URING_TMP/uring_smoke.json" \
    "$BUILD_DIR/bench/io_backend"
  grep -q '"bench":"io_backend_ckpt_sweep"' "$URING_TMP/uring_smoke.json"
  if grep -q '"uring_available":1' "$URING_TMP/uring_smoke.json"; then
    echo "check.sh: uring smoke ran with a live ring"
  else
    echo "check.sh: io_uring unavailable on this host; smoke used the" \
         "synchronous pwrite fallback (see the 'lss: uring backend'" \
         "stderr line above for the probe's reason)"
  fi
  echo "check.sh: uring green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Small-scale parallel TPC-C smoke: 2-worker trace generation, replay
# through RunTrace over 2 shards, machine-readable output — the
# end-to-end gate for the concurrent fig6 pipeline (seconds, not
# minutes; the full bench is LSS_BENCH_SCALE/LSS_BENCH_THREADS).
if [[ -x "$BUILD_DIR/bench/fig6_tpcc" ]]; then
  LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=2 LSS_BENCH_NO_CACHE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/fig6_smoke.json" \
    "$BUILD_DIR/bench/fig6_tpcc"
  grep -q '"bench":"fig6_tpcc"' "$BUILD_DIR/fig6_smoke.json"
  echo "check.sh: fig6 parallel smoke green"

  # Workers-beyond-warehouses smoke: 4 worker sessions over the fixed
  # 2 smoke warehouses — the end-to-end gate for the latch-coupled
  # engine's headline capability (the old engine clamped workers to the
  # warehouse count). The JSON must confirm the layout actually ran at
  # 4 threads / 2 warehouses and produced a non-empty measured trace.
  LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=4 LSS_BENCH_NO_CACHE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/fig6_smoke_4w.json" \
    "$BUILD_DIR/bench/fig6_tpcc"
  grep -q '"bench":"fig6_tpcc"' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"row":"generation"' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"threads":4' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"warehouses":2' "$BUILD_DIR/fig6_smoke_4w.json"
  if grep -q '"trace_records":0[,}]' "$BUILD_DIR/fig6_smoke_4w.json"; then
    echo "check.sh: fig6 workers>warehouses smoke produced an empty trace" >&2
    exit 1
  fi
  echo "check.sh: fig6 workers>warehouses smoke green"
fi

# Buffer-pool eviction-policy smoke: runs all three policies (exact
# LRU / CLOCK / 2Q) through the hit-path, TPC-C and scan-flood panels
# and sanity-checks the JSON — the gate for the pluggable-eviction
# seam (latch-free CLOCK hits, 2Q scan resistance).
if [[ -x "$BUILD_DIR/bench/buffer_pool" ]]; then
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/buffer_pool_smoke.json" \
    "$BUILD_DIR/bench/buffer_pool"
  grep -q '"bench":"buffer_pool"' "$BUILD_DIR/buffer_pool_smoke.json"
  grep -q '"row":"scan_flood"' "$BUILD_DIR/buffer_pool_smoke.json"
  echo "check.sh: buffer_pool policy smoke green"
fi

# Delta-checkpoint smoke: the io_backend checkpoint sweep on a small
# device, shortest barrier interval only — the end-to-end gate for
# suffix-only open-segment persistence. The JSON must carry both a
# full-mode and a delta-mode row, and the delta row must have actually
# emitted suffix records (a silent fallback to full checkpoints would
# drop the checkpoint_delta_records field's nonzero value).
if [[ -x "$BUILD_DIR/bench/io_backend" ]]; then
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/io_backend_smoke.json" \
    "$BUILD_DIR/bench/io_backend"
  grep -q '"bench":"io_backend_ckpt_sweep"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"mode":"delta"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"ckpt_bytes_full_over_delta"' "$BUILD_DIR/io_backend_smoke.json"
  echo "check.sh: io_backend delta-checkpoint smoke green"
fi

echo "check.sh: all green"
