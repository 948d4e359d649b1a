#!/usr/bin/env bash
# One-shot tier-1 verify: configure, build everything (library, tests,
# benches, examples) with warnings-as-errors, then run the full test suite.
# This mirrors .github/workflows/ci.yml exactly; if this passes locally,
# CI should be green.
#
# Usage: scripts/check.sh [--tsan|--asan|--torture] [build-dir]
#   default:  full build + full test suite in ./build, then lssbench
#             built as its own CMake project (bench/lssbench, the
#             build BENCHMARK.json's command makes) in
#             <build-dir>/lssbench, its --selftest and a 1-second
#             zipf80-1t run whose wamp, device bytes per user byte and
#             space_amp must equal the values pinned below
#   --tsan:   rebuild with -fsanitize=thread in ./build-tsan (or the given
#             build dir) and run the concurrency test suites under
#             ThreadSanitizer — the data-race gate for ShardedStore
#             (including the write-behind ring: the contended
#             exactly-once, hand-off, full-ring, parked-caller and
#             deferred-failure cases), the one-word ShardLock itself
#             (ShardLock* in tests/core/shard_lock_test.cc, including a
#             release on another thread than the acquire), the
#             lock-free PageTable, the per-shard seal pipeline (its
#             threaded executor's unit and sync/async op-sequence tests,
#             SealPipeline* in tests/core/seal_pipeline_test.cc, and the
#             AsyncSeal* cases in tests/core/sharded_store_test.cc) and
#             parallel trace replay (TraceReplayParallel*).
#   --asan:   rebuild with -fsanitize=address,undefined in ./build-asan
#             (or the given build dir) and run the FULL test suite — the
#             memory-safety gate for the raw-I/O backend (pwrite buffers,
#             recovery scans) and everything else.
#   --torture: normal build, then the crash-recovery torture harness
#             (tests/integration/crash_recovery_test.cc) with extra
#             randomized kill points per geometry (LSS_TORTURE_ITERS,
#             default 600 here vs 200 in the tier-1 run; each test's
#             300 s ctest TIMEOUT, set in CMakeLists.txt, caps it at
#             about 3,000 on a 4-vCPU host, where 600 take 52 s). Every
#             geometry audits strict zero-loss — there is no tolerated
#             residual window — and the diverting geometries fail
#             unless withheld-slot reuse goes through entry re-homing
#             (withheld_slot_reuses_rehomed; a plain reuse of a slot
#             with still-needed entries cannot happen by construction
#             and any loss it would cause fails the audit).
set -euo pipefail

cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
TORTURE=0
if [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--torture" ]]; then
  TORTURE=1
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
  # binary would otherwise exit 0. 'Sharded' does not match ShardLock*,
  # so that suite is named on its own. 'Parallel' already covers
  # TraceReplayParallel; it is named anyway so the gate's scope is
  # explicit.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'Sharded|ShardLock|PageTableConcurrency|Parallel|AsyncSeal|SealPipeline|TraceReplayParallel'
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

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# lssbench as the benchmark builds it: bench/lssbench is its own CMake
# project that pulls in the library with tests, benches and examples
# off, so a src/ change that breaks it (say, a dropped StoreConfig or
# StoreStats field it reads) fails here, then its self-test runs.
cmake -S bench/lssbench -B "$BUILD_DIR/lssbench"
cmake --build "$BUILD_DIR/lssbench" -j "$JOBS"
"$BUILD_DIR/lssbench/lssbench" --selftest
echo "check.sh: lssbench selftest green"

# Wamp gate: on the null backend the paper's metric depends only on the
# seed and the op count (--seconds fixes the count, not the time), so
# one short zipf80-1t run must print exactly these three ratios. A
# change that moves a cleaning decision fails here; it re-pins the
# values and names the old and new ones in CHANGES.md.
GATE_DIR="$BUILD_DIR/wamp_gate"
rm -rf "$GATE_DIR"
GATE_LINE="$("$BUILD_DIR/lssbench/lssbench" --workload zipf80-1t --seed 1 \
  --seconds 1 --dir "$GATE_DIR" | tail -n 1)"
rm -rf "$GATE_DIR"
for pinned in '"wamp": {"value": 0.62738880358244242,' \
    '"device_bytes_per_user_byte": {"value": 1.627415707236842,' \
    '"space_amp": {"value": 1.2414621818285856,'; do
  if ! grep -qF -- "$pinned" <<<"$GATE_LINE"; then
    echo "check.sh: zipf80-1t Wamp gate: expected $pinned in" >&2
    echo "$GATE_LINE" >&2
    exit 1
  fi
done
echo "check.sh: zipf80-1t Wamp gate green"

# Small-scale TPC-C smoke: one-writer trace generation, replay through
# RunTrace over 2 shards, machine-readable output, then the same run
# again from the trace cache (a scratch TMPDIR, so no cached trace from
# elsewhere is read). The second run must load the cache and print the
# same table as the first (seconds, not minutes; the full bench is
# LSS_BENCH_SCALE/LSS_BENCH_THREADS).
if [[ -x "$BUILD_DIR/bench/fig6_tpcc" ]]; then
  FIG6_TMP="$(mktemp -d "$BUILD_DIR/fig6_cache.XXXXXX")"
  TMPDIR="$FIG6_TMP" LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=2 \
    LSS_BENCH_JSON="$BUILD_DIR/fig6_smoke.json" \
    "$BUILD_DIR/bench/fig6_tpcc" | tee "$FIG6_TMP/first.out"
  grep -q '"bench":"fig6_tpcc"' "$BUILD_DIR/fig6_smoke.json"
  TMPDIR="$FIG6_TMP" LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=2 \
    "$BUILD_DIR/bench/fig6_tpcc" | tee "$FIG6_TMP/second.out"
  if ! grep -q '^trace (cached)' "$FIG6_TMP/second.out"; then
    echo "check.sh: fig6 smoke rerun did not load the cached trace" >&2
    exit 1
  fi
  if ! diff <(grep -v '^trace' "$FIG6_TMP/first.out") \
            <(grep -v '^trace' "$FIG6_TMP/second.out"); then
    echo "check.sh: fig6 smoke from the cached trace printed another table" >&2
    exit 1
  fi
  rm -rf "$FIG6_TMP"
  echo "check.sh: fig6 smoke (generated and cached) green"
fi

# Recovery-scan smoke: one run each of BM_RecoverScan (FileBackend::Scan
# over an ~8 MiB metadata log) and BM_RecoverResolve (the same Scan, then
# ResolveRecovery's chain fold and newest-wins pass) — the gate that the
# framed, lane-verified replay and the resolver still handle a real
# churn log end to end (a Scan or resolve error skips the benchmark with
# an error, which fails the grep below).
if [[ -x "$BUILD_DIR/bench/micro_core" ]]; then
  "$BUILD_DIR/bench/micro_core" \
    --benchmark_filter='^BM_Recover(Scan|Resolve)$' \
    --benchmark_out="$BUILD_DIR/recover_scan_smoke.json" \
    --benchmark_out_format=json
  grep -q '"name": "BM_RecoverScan"' "$BUILD_DIR/recover_scan_smoke.json"
  grep -q '"name": "BM_RecoverResolve"' "$BUILD_DIR/recover_scan_smoke.json"
  grep -q '"bytes_per_second"' "$BUILD_DIR/recover_scan_smoke.json"
  if grep -q '"error_occurred": true' "$BUILD_DIR/recover_scan_smoke.json"; then
    echo "check.sh: BM_RecoverScan or BM_RecoverResolve reported an error" >&2
    exit 1
  fi
  echo "check.sh: recovery-scan smoke green"

  # Flush-order smoke: one run of BM_FlushOrder, both arms (radix kernel
  # and std::stable_sort) over one full 2,048-entry write buffer. The
  # benchmark first checks that the radix permutation equals the stable
  # sort's on that batch and reports an error otherwise, which fails the
  # grep below.
  "$BUILD_DIR/bench/micro_core" --benchmark_filter='^BM_FlushOrder/' \
    --benchmark_out="$BUILD_DIR/flush_order_smoke.json" \
    --benchmark_out_format=json
  grep -q '"name": "BM_FlushOrder/0"' "$BUILD_DIR/flush_order_smoke.json"
  grep -q '"name": "BM_FlushOrder/1"' "$BUILD_DIR/flush_order_smoke.json"
  grep -q '"items_per_second"' "$BUILD_DIR/flush_order_smoke.json"
  if grep -q '"error_occurred": true' "$BUILD_DIR/flush_order_smoke.json"; then
    echo "check.sh: BM_FlushOrder reported an error" >&2
    exit 1
  fi
  echo "check.sh: flush-order smoke green"

  # Flush-cycle smoke: one run of BM_FlushCycle (one MDC shard in
  # zipf80-1t's shape on a 128 MiB device; each iteration is one
  # 2,048-page buffer flush with its inline cleaning). The name must be
  # in the output and no error reported.
  "$BUILD_DIR/bench/micro_core" --benchmark_filter='^BM_FlushCycle$' \
    --benchmark_out="$BUILD_DIR/flush_cycle_smoke.json" \
    --benchmark_out_format=json
  grep -q '"name": "BM_FlushCycle"' "$BUILD_DIR/flush_cycle_smoke.json"
  if grep -q '"error_occurred": true' "$BUILD_DIR/flush_cycle_smoke.json"; then
    echo "check.sh: BM_FlushCycle reported an error" >&2
    exit 1
  fi
  echo "check.sh: flush-cycle smoke green"
fi

# Delta-checkpoint smoke: the io_backend checkpoint sweep on a small
# device, shortest barrier interval only — the end-to-end gate for
# suffix-only open-segment persistence. The JSON must carry both a
# full-mode and a delta-mode row, and the delta row must have actually
# emitted suffix records (a silent fallback to full checkpoints would
# drop the checkpoint_delta_records field's nonzero value). The same run
# carries the compaction panel's shortest-history row: the store must
# have compacted its metadata log and reopened from it.
if [[ -x "$BUILD_DIR/bench/io_backend" ]]; then
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/io_backend_smoke.json" \
    "$BUILD_DIR/bench/io_backend"
  grep -q '"bench":"io_backend_ckpt_sweep"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"mode":"delta"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"ckpt_bytes_full_over_delta"' "$BUILD_DIR/io_backend_smoke.json"
  echo "check.sh: io_backend delta-checkpoint smoke green"
  grep -q '"bench":"io_backend_meta_compaction"' \
    "$BUILD_DIR/io_backend_smoke.json"
  if grep -q '"meta_compactions":0[,}]' "$BUILD_DIR/io_backend_smoke.json"; then
    echo "check.sh: the compaction smoke never compacted" >&2
    exit 1
  fi
  echo "check.sh: io_backend metadata-log compaction smoke green"
fi

echo "check.sh: all green"
