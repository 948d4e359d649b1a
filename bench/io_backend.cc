// Simulator-to-device bridge: the Figure-5 synthetic workload swept over
// segment backends (core/io_backend.h). The null backend is the paper's
// simulator — it *predicts* write amplification; the file backend
// performs every sealed segment as a real pwrite (+fsync) into per-shard
// files, so the same run also *measures* device bytes per user byte and
// the wall-clock cost of durability.
//
// What to expect: measured device bytes per user byte tracks the
// simulator's 1 + Wamp prediction to within the metadata + segment-tail
// overhead (a few percent) — the write pattern, not the device, decides
// write amplification, which is exactly the paper's claim (§6.1.1 fn 2).
// The fsync column is where "file" and "file-nosync" part ways: cleaning
// does not change the prediction, but it doubles the seals the device
// must sync.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply device size / run length (default 1)
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)
//   LSS_BENCH_IO_DIR=dir  where the segment files live (default: a fresh
//                         directory under $TMPDIR, removed afterwards)
//   LSS_BENCH_URING_DEPTH=N  io_uring queue depth for the uring rows
//                         (default: StoreConfig::uring_queue_depth)
//
// The uring rows run the io_uring-overlapped backend
// (core/uring_backend.h). Where the kernel or a seccomp filter
// disallows io_uring the backend probes, logs, and degrades to the file
// backend's synchronous path, so the rows still appear — the JSON field
// uring_available records which behaviour was measured.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "bench/bench_common.h"
#include "core/io_backend.h"
#include "core/sharded_store.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/runner.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

// LSS_BENCH_SMOKE=1 skips the long panels and runs only the checkpoint
// sweep at its shortest interval on a small device — the CI gate for
// the full-vs-delta persistence path (seconds, not minutes).
bool SmokeMode() {
  const char* env = std::getenv("LSS_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct TempDir {
  std::string path;
  bool owned = false;

  static TempDir Make() {
    TempDir t;
    if (const char* dir = std::getenv("LSS_BENCH_IO_DIR")) {
      t.path = dir;
      return t;
    }
#ifndef _WIN32
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/lss_io_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) {
      t.path = buf.data();
      t.owned = true;
    }
#endif
    return t;
  }

  void Cleanup(uint32_t max_shards) const {
#ifndef _WIN32
    if (!owned) return;
    for (uint32_t i = 0; i < max_shards; ++i) {
      ::unlink(FileBackend::DataPath(path, i).c_str());
      ::unlink(FileBackend::MetaPath(path, i).c_str());
    }
    ::rmdir(path.c_str());
#else
    (void)max_shards;
#endif
  }
};

StoreConfig IoConfig(const std::string& backend_spec) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;  // 512 KB segments
  cfg.num_segments = 128 * bench::ScaleFactor();
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 4;
  Status s = ApplyBackendSpec(backend_spec, &cfg);
  if (!s.ok()) {
    std::fprintf(stderr, "backend spec: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return cfg;
}

void Panel(const char* workload_name, const WorkloadGenerator& workload,
           double fill, const std::string& dir) {
  const std::vector<Variant> variants = {Variant::kGreedy, Variant::kMdc};
  const std::vector<std::string> backends = {
      "null", "file-nosync:" + dir, "file:" + dir, "uring-nosync:" + dir,
      "uring:" + dir};

  std::printf("io_backend %s, F=%.2f: predicted vs device-measured\n\n",
              workload_name, fill);
  TablePrinter table({"variant", "backend", "Wamp", "pred dev B/B",
                      "meas dev B/B", "dev MB", "dev MB/s", "fsyncs"});
  for (Variant v : variants) {
    for (const std::string& spec : backends) {
      StoreConfig cfg = IoConfig(spec);
      RunSpec run = bench::DefaultSpec(fill);
      run.warmup_multiplier = 4;
      run.measure_multiplier = 6;
      const RunResult r = RunSynthetic(cfg, v, workload, run);
      const std::string label = spec.substr(0, spec.find(':'));
      if (!r.status.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", VariantName(v).c_str(),
                     label.c_str(), r.status.ToString().c_str());
        continue;
      }
      std::vector<TablePrinter::Cell> row;
      row.emplace_back(VariantName(v));
      row.emplace_back(label);
      row.emplace_back(r.wamp, 3);
      // Sealed segments are (nearly) full, so every physical byte the
      // device sees is a user byte, a GC byte or metadata: 1 + Wamp.
      row.emplace_back(1.0 + r.wamp, 3);
      const StoreStats& st = r.stats;
      if (st.device_bytes_written > 0) {
        const double mb =
            static_cast<double>(st.device_bytes_written) / (1024.0 * 1024.0);
        const double blocking_s = st.BackendBlockingSeconds();
        row.emplace_back(st.DeviceBytesPerUserByte(), 3);
        row.emplace_back(mb, 1);
        row.emplace_back(blocking_s > 0 ? mb / blocking_s : 0.0, 1);
        row.emplace_back(static_cast<int>(st.device_fsyncs));
      } else {
        row.emplace_back("-");
        row.emplace_back("-");
        row.emplace_back("-");
        row.emplace_back("-");
      }
      table.AddRow(std::move(row));

      bench::JsonRow json("io_backend");
      json.Str("workload", workload_name)
          .Str("variant", r.variant)
          .Str("backend", label)
          .Num("fill", fill)
          .Num("wamp", r.wamp)
          .Num("predicted_device_bytes_per_user_byte", 1.0 + r.wamp)
          .Num("device_bytes_written", st.device_bytes_written)
          .Num("device_bytes_per_user_byte", st.DeviceBytesPerUserByte())
          .Num("device_fsyncs", st.device_fsyncs)
          .Num("backend_blocking_seconds", st.BackendBlockingSeconds())
          .Num("uring_available", st.uring_available);
      bench::Emit(json);
    }
  }
  table.Print(stdout);
  std::printf("\n");
}

// Sync vs async seal, file vs uring, at equal fsync policy: identical
// placement (the determinism tests pin it), different I/O schedule.
// Sync pays a pwrite+fsync inside the write path per seal; async hands
// the seal to the per-shard I/O thread and group-commits the fsyncs,
// so the column to watch is updates/s against fsyncs (and the group-
// commit batch size). The uring rows replace the blocking payload
// pwrite with SQE submission + a batch-end completion reap, so their
// "blk ms" — milliseconds the thread driving the backend spent blocked
// on device work — should undercut the file rows; that saving is what
// the ring buys. Checkpointing adds periodic open-segment persistence —
// crash-window closure priced in device bytes.
void SealPipelinePanel(double fill, const std::string& dir) {
  struct Mode {
    const char* label;
    bool async;
    uint32_t checkpoint_interval;
  };
  const std::vector<Mode> modes = {
      {"sync", false, 0},
      {"async", true, 0},
      {"async+ckpt", true, bench::CheckpointInterval(64)},
  };
  const std::vector<std::string> backends = {"file:" + dir, "uring:" + dir};

  const StoreConfig probe = IoConfig("null");
  UniformWorkload workload(bench::UserPagesFor(probe, fill));

  std::printf(
      "io_backend (c) seal pipeline, F=%.2f: sync vs async seal, file vs "
      "uring\n\n",
      fill);
  TablePrinter table({"mode", "backend", "Wamp", "kupd/s", "wall s", "blk ms",
                      "dev MB", "fsyncs", "group fsyncs", "stalls", "ckpts",
                      "rehomed", "plain"});
  for (const Mode& m : modes) {
    for (const std::string& spec : backends) {
      StoreConfig cfg = IoConfig(spec);
      cfg.async_seal = m.async;
      cfg.seal_queue_depth = 16;
      cfg.checkpoint_interval_ops = m.checkpoint_interval;
      cfg.uring_queue_depth = bench::UringDepth(cfg.uring_queue_depth);
      RunSpec run = bench::DefaultSpec(fill);
      run.warmup_multiplier = 4;
      run.measure_multiplier = 6;
      const RunResult r = RunSynthetic(cfg, Variant::kMdc, workload, run);
      const std::string label = spec.substr(0, spec.find(':'));
      if (!r.status.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", m.label, label.c_str(),
                     r.status.ToString().c_str());
        continue;
      }
      const StoreStats& st = r.stats;
      std::vector<TablePrinter::Cell> row;
      row.emplace_back(m.label);
      row.emplace_back(label);
      row.emplace_back(r.wamp, 3);
      row.emplace_back(r.updates_per_second / 1000.0, 1);
      row.emplace_back(r.measure_seconds, 2);
      row.emplace_back(st.BackendBlockingSeconds() * 1000.0, 1);
      row.emplace_back(
          static_cast<double>(st.device_bytes_written) / (1024.0 * 1024.0), 1);
      row.emplace_back(static_cast<int>(st.device_fsyncs));
      row.emplace_back(static_cast<int>(st.group_fsyncs));
      row.emplace_back(static_cast<int>(st.seal_queue_stalls));
      row.emplace_back(static_cast<int>(st.checkpoints_written));
      row.emplace_back(static_cast<int>(st.withheld_slot_reuses_rehomed));
      row.emplace_back(static_cast<int>(st.withheld_slot_reuses_plain));
      table.AddRow(std::move(row));

      bench::JsonRow json("io_backend_seal_pipeline");
      json.Str("mode", m.label)
          .Str("backend", label)
          .Str("variant", r.variant)
          .Num("fill", fill)
          .Num("wamp", r.wamp)
          .Num("updates_per_second", r.updates_per_second)
          .Num("measure_seconds", r.measure_seconds)
          .Num("backend_blocking_seconds", st.BackendBlockingSeconds())
          .Num("uring_available", st.uring_available)
          .Num("uring_submitted", st.uring_submitted)
          .Num("device_bytes_written", st.device_bytes_written)
          .Num("device_fsyncs", st.device_fsyncs)
          .Num("group_fsyncs", st.group_fsyncs)
          .Num("seal_queue_stalls", st.seal_queue_stalls)
          .Num("checkpoints_written", st.checkpoints_written)
          .Num("checkpoint_rounds", st.checkpoint_rounds)
          .Num("checkpoint_full_records", st.checkpoint_full_records)
          .Num("checkpoint_delta_records", st.checkpoint_delta_records)
          .Num("checkpoint_bytes_written", st.checkpoint_bytes_written)
          .Num("withheld_slot_reuses_rehomed", st.withheld_slot_reuses_rehomed)
          .Num("withheld_slot_reuses_plain", st.withheld_slot_reuses_plain);
      bench::Emit(json);
    }
  }
  table.Print(stdout);
  std::printf(
      "blk ms = milliseconds the backend-driving thread was blocked on "
      "device work\n(write submit + fsync + completion waits); uring vs "
      "file at equal mode is the\noverlap the ring bought.\n\n");
}

// One cell of the checkpoint sweep: a store driven directly, with an
// explicit Checkpoint() barrier every `barrier_updates` user updates —
// the crash-freshness pattern delta checkpoints exist for. (Periodic
// seal-count-driven rounds fire at seal boundaries, where the segment
// that was growing has just been consumed by its seal and every other
// open segment is static since its own last fill phase, so those rounds
// alone never observe suffix growth; a barrier lands mid-fill and
// does.) Warm-up reaches steady state, then measurement covers
// 4x user_pages updates with the same barrier cadence.
struct BarrierRun {
  Status status;
  StoreStats stats;
  double wamp = 0.0;
};

BarrierRun RunBarrierWorkload(const StoreConfig& cfg,
                              const UniformWorkload& workload,
                              uint32_t barrier_updates) {
  BarrierRun out;
  StoreConfig store_cfg = cfg;
  ApplyVariantConfig(Variant::kMdc, &store_cfg);
  auto store = ShardedStore::Create(
      store_cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &out.status);
  if (store == nullptr) return out;
  store->SetExactFrequencyOracle(
      [&workload](PageId p) { return workload.ExactFrequency(p); });
  const uint64_t user_pages = workload.NumPages();
  for (PageId p = 0; p < user_pages; ++p) {
    Status s = store->Write(p);
    if (!s.ok()) {
      out.status = s;
      return out;
    }
  }
  Rng rng(42);
  auto run_updates = [&](uint64_t n) -> Status {
    for (uint64_t i = 0; i < n; ++i) {
      Status s = store->Write(workload.NextPage(rng));
      if (!s.ok()) return s;
      if ((i + 1) % barrier_updates == 0) {
        s = store->Checkpoint();
        if (!s.ok()) return s;
      }
    }
    return Status::OK();
  };
  out.status = run_updates(2 * user_pages);
  if (!out.status.ok()) return out;
  store->ResetMeasurement();
  out.status = run_updates(4 * user_pages);
  if (!out.status.ok()) return out;
  out.stats = store->AggregatedStats();
  out.wamp = out.stats.WriteAmplification();
  return out;
}

// Checkpoint-interval sweep: what barrier-driven open-segment
// persistence costs in device bytes, full-rewrite vs delta
// (suffix-only) records, against an analytic prediction. A full
// checkpoint rewrites the whole slot payload every barrier; a delta
// writes only the bytes appended since the slot's durable watermark
// (and a covered slot is skipped outright), so at short intervals the
// checkpoint traffic drops by roughly segment size over per-barrier
// fill. The prediction prices every durable record from first
// principles — seals at segment_bytes + one EntryRec per page, frees
// at header + body, re-homes at header + seal body + entries — plus
// the measured checkpoint bytes; measured device bytes should match to
// well under a percent (file-nosync, so byte accounting is exact while
// the sweep stays fast).
void CheckpointSweepPanel(double fill, const std::string& dir) {
  const bool smoke = SmokeMode();
  // The sweep needs exact byte accounting, so it runs nosync — but it
  // honours a uring LSS_BENCH_BACKEND (the --uring CI smoke): the
  // ring-overlapped path must reproduce the same exact bytes, which the
  // pred-err column then asserts.
  const char* backend_env = std::getenv("LSS_BENCH_BACKEND");
  const bool want_uring =
      backend_env != nullptr && std::strncmp(backend_env, "uring", 5) == 0;
  const std::string nosync_spec =
      (want_uring ? "uring-nosync:" : "file-nosync:") + dir;
  StoreConfig probe = IoConfig("null");
  if (smoke) probe.num_segments = 32;
  UniformWorkload workload(bench::UserPagesFor(probe, fill));
  const uint32_t shortest = bench::CheckpointInterval(8);
  std::vector<uint32_t> intervals = {shortest, shortest * 4, shortest * 16};
  if (smoke) intervals = {shortest};

  std::printf(
      "io_backend (d) checkpoint sweep, F=%.2f: full vs delta records\n"
      "(interval = user updates between Checkpoint() barriers)\n\n",
      fill);
  TablePrinter table({"interval", "mode", "rounds", "full recs",
                      "delta recs", "ckpt MB", "dev MB", "pred MB",
                      "pred err", "ckpt ratio"});
  for (uint32_t interval : intervals) {
    uint64_t full_ckpt_bytes = 0;
    for (bool delta : {false, true}) {
      StoreConfig cfg = IoConfig(nosync_spec);
      cfg.num_segments = probe.num_segments;
      cfg.uring_queue_depth = bench::UringDepth(cfg.uring_queue_depth);
      // Keep the checkpoint-mode reclaim protocol on (the withheld-free
      // machinery is gated on a non-zero interval) but push the
      // seal-count-driven rounds out of reach: only the explicit
      // barriers checkpoint, so both modes pay for exactly the same
      // round schedule.
      cfg.checkpoint_interval_ops = 1u << 30;
      cfg.checkpoint_delta = delta;
      const BarrierRun br = RunBarrierWorkload(cfg, workload, interval);
      if (!br.status.ok()) {
        std::fprintf(stderr, "ckpt sweep %u/%s failed: %s\n", interval,
                     delta ? "delta" : "full", br.status.ToString().c_str());
        continue;
      }
      // Durable-record byte model (io_backend.cc layouts): MetaHeader 24,
      // SealBody 48, EntryRec 48, FreeBody 16. Sealed segments are full
      // (fixed-size pages), so each seal writes segment_bytes of payload
      // plus a record with one EntryRec per page; each cleaned victim a
      // free record; each re-homing event a SealBody-shaped record with
      // one EntryRec per re-homed entry. Checkpoint traffic is taken
      // from the backend's own meter.
      const StoreStats& st = br.stats;
      const uint64_t pages_per_segment = cfg.segment_bytes / cfg.page_bytes;
      const uint64_t seal_bytes =
          cfg.segment_bytes + 24 + 48 + pages_per_segment * 48;
      const uint64_t segments_sealed =
          st.user_segments_sealed + st.gc_segments_sealed;
      const uint64_t predicted =
          segments_sealed * seal_bytes + st.segments_cleaned * (24 + 16) +
          st.withheld_slot_reuses_rehomed * (24 + 48) +
          st.rehome_entries_written * 48 + st.checkpoint_bytes_written;
      const double err =
          st.device_bytes_written > 0
              ? std::abs(static_cast<double>(predicted) -
                         static_cast<double>(st.device_bytes_written)) /
                    static_cast<double>(st.device_bytes_written)
              : 0.0;
      double ratio = 0.0;
      if (!delta) {
        full_ckpt_bytes = st.checkpoint_bytes_written;
      } else if (st.checkpoint_bytes_written > 0) {
        ratio = static_cast<double>(full_ckpt_bytes) /
                static_cast<double>(st.checkpoint_bytes_written);
      }
      const double mb = 1.0 / (1024.0 * 1024.0);
      std::vector<TablePrinter::Cell> row;
      row.emplace_back(static_cast<int>(interval));
      row.emplace_back(delta ? "delta" : "full");
      row.emplace_back(static_cast<int>(st.checkpoint_rounds));
      row.emplace_back(static_cast<int>(st.checkpoint_full_records));
      row.emplace_back(static_cast<int>(st.checkpoint_delta_records));
      row.emplace_back(static_cast<double>(st.checkpoint_bytes_written) * mb,
                       1);
      row.emplace_back(static_cast<double>(st.device_bytes_written) * mb, 1);
      row.emplace_back(static_cast<double>(predicted) * mb, 1);
      row.emplace_back(err * 100.0, 2);
      if (delta && ratio > 0) {
        row.emplace_back(ratio, 1);
      } else {
        row.emplace_back("-");
      }
      table.AddRow(std::move(row));

      bench::JsonRow json("io_backend_ckpt_sweep");
      json.Str("mode", delta ? "delta" : "full")
          .Str("backend", nosync_spec.substr(0, nosync_spec.find(':')))
          .Num("uring_available", st.uring_available)
          .Num("interval", static_cast<uint64_t>(interval))
          .Num("fill", fill)
          .Num("wamp", br.wamp)
          .Num("checkpoint_rounds", st.checkpoint_rounds)
          .Num("checkpoints_written", st.checkpoints_written)
          .Num("checkpoint_full_records", st.checkpoint_full_records)
          .Num("checkpoint_delta_records", st.checkpoint_delta_records)
          .Num("checkpoint_bytes_written", st.checkpoint_bytes_written)
          .Num("device_bytes_written", st.device_bytes_written)
          .Num("predicted_device_bytes", predicted)
          .Num("prediction_error", err);
      if (delta && ratio > 0) json.Num("ckpt_bytes_full_over_delta", ratio);
      bench::Emit(json);
    }
  }
  table.Print(stdout);
  std::printf(
      "ckpt ratio = full-mode checkpoint bytes / delta-mode checkpoint "
      "bytes\nat the same interval (the suffix-only win; grows as the "
      "interval shrinks).\n\n");
}

void Run() {
  TempDir dir = TempDir::Make();
  if (dir.path.empty()) {
    std::fprintf(stderr, "could not create a temp directory\n");
    std::exit(1);
  }
  const double fill = 0.8;
  if (!SmokeMode()) {
    const StoreConfig probe = IoConfig("null");
    UniformWorkload uniform(bench::UserPagesFor(probe, fill));
    Panel("(a) uniform", uniform, fill, dir.path);
    ZipfianWorkload zipf(bench::UserPagesFor(probe, fill), 0.99);
    Panel("(b) 80-20 zipfian 0.99", zipf, fill, dir.path);
    SealPipelinePanel(fill, dir.path);
  }
  CheckpointSweepPanel(fill, dir.path);
  std::printf(
      "pred dev B/B = simulator prediction (1 + Wamp);\n"
      "meas dev B/B = bytes the file backend physically wrote per user "
      "byte\n(includes segment tails and metadata records).\n"
      "seal pipeline: async hides seal latency behind a per-shard I/O "
      "thread\nand group-commits fsyncs; +ckpt adds periodic open-segment "
      "checkpoints.\n");
  dir.Cleanup(1);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}
