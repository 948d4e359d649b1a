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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
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
// sweep at its shortest interval and the compaction panel at its
// shortest history, both on a small device — the CI gate for the
// full-vs-delta persistence path and the metadata-log compaction
// (seconds, not minutes).
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
      ::unlink(FileBackend::MetaTempPath(path, i).c_str());
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
      "null", "file-nosync:" + dir, "file:" + dir};

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
          .Num("meta_compactions", st.meta_compactions)
          .Num("meta_compaction_bytes", st.meta_compaction_bytes)
          .Num("meta_compaction_seconds", st.meta_compaction_seconds)
          .Num("backend_blocking_seconds", st.BackendBlockingSeconds());
      bench::Emit(json);
    }
  }
  table.Print(stdout);
  std::printf("\n");
}

// Sync vs async seal on the file backend with fsync: identical
// placement (the determinism tests pin it), different I/O schedule.
// Sync pays a pwrite+fsync inside the write path per seal; async hands
// the seal to the per-shard I/O thread and group-commits the fsyncs,
// so the column to watch is updates/s against fsyncs (and the group-
// commit batch size). Checkpointing adds periodic open-segment
// persistence — crash-window closure priced in device bytes.
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

  const StoreConfig probe = IoConfig("null");
  UniformWorkload workload(bench::UserPagesFor(probe, fill));

  std::printf(
      "io_backend (c) seal pipeline, F=%.2f: sync vs async seal (file)\n\n",
      fill);
  TablePrinter table({"mode", "Wamp", "kupd/s", "wall s", "blk ms", "dev MB",
                      "fsyncs", "group fsyncs", "stalls", "ckpts", "rehomed",
                      "plain"});
  for (const Mode& m : modes) {
    StoreConfig cfg = IoConfig("file:" + dir);
    cfg.async_seal = m.async;
    cfg.seal_queue_depth = 16;
    cfg.checkpoint_interval_ops = m.checkpoint_interval;
    RunSpec run = bench::DefaultSpec(fill);
    run.warmup_multiplier = 4;
    run.measure_multiplier = 6;
    const RunResult r = RunSynthetic(cfg, Variant::kMdc, workload, run);
    if (!r.status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", m.label,
                   r.status.ToString().c_str());
      continue;
    }
    const StoreStats& st = r.stats;
    std::vector<TablePrinter::Cell> row;
    row.emplace_back(m.label);
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
        .Str("backend", "file")
        .Str("variant", r.variant)
        .Num("fill", fill)
        .Num("wamp", r.wamp)
        .Num("updates_per_second", r.updates_per_second)
        .Num("measure_seconds", r.measure_seconds)
        .Num("backend_blocking_seconds", st.BackendBlockingSeconds())
        .Num("device_bytes_written", st.device_bytes_written)
        .Num("device_fsyncs", st.device_fsyncs)
        .Num("meta_compactions", st.meta_compactions)
        .Num("meta_compaction_bytes", st.meta_compaction_bytes)
        .Num("meta_compaction_seconds", st.meta_compaction_seconds)
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
  table.Print(stdout);
  std::printf(
      "blk ms = milliseconds the backend-driving thread was blocked on "
      "device work\n(pwrite + fsync).\n\n");
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
  // The sweep needs exact byte accounting, so it runs nosync.
  const std::string nosync_spec = "file-nosync:" + dir;
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
      // one EntryRec per re-homed entry. Checkpoint and metadata-log
      // compaction traffic are taken from the backend's own meters.
      const StoreStats& st = br.stats;
      const uint64_t pages_per_segment = cfg.segment_bytes / cfg.page_bytes;
      const uint64_t seal_bytes =
          cfg.segment_bytes + 24 + 48 + pages_per_segment * 48;
      const uint64_t segments_sealed =
          st.user_segments_sealed + st.gc_segments_sealed;
      const uint64_t predicted =
          segments_sealed * seal_bytes + st.segments_cleaned * (24 + 16) +
          st.withheld_slot_reuses_rehomed * (24 + 48) +
          st.rehome_entries_written * 48 + st.checkpoint_bytes_written +
          st.meta_compaction_bytes;
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
          .Str("backend", "file-nosync")
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

// Metadata-log compaction against write history: one store per history
// length (2 to 16 update passes of 80-20 Zipfian writes with 5 %
// deletes, MDC with delta checkpoints every 64 backend ops, file-nosync),
// then a reopen. "appended" is every byte the log received, the size it
// would have without compaction (the step hook samples the log before
// each rewrite); "on disk" is the log the reopen replays; "model" prices
// the live records from first principles — the geometry and watermark
// records, one full seal record per occupied slot and one tombstone per
// deleted page. Appended grows with history; on disk stays within the
// compaction trigger of the model.
void CompactionPanel(double fill, const std::string& dir) {
  const bool smoke = SmokeMode();
  StoreConfig cfg = IoConfig("file-nosync:" + dir);
  if (smoke) cfg.num_segments = 32;
  cfg.checkpoint_interval_ops = 64;
  cfg.checkpoint_delta = true;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  const uint64_t user_pages = bench::UserPagesFor(cfg, fill);
  ZipfianWorkload workload(user_pages, 0.99);
  std::vector<uint32_t> passes = {2, 4, 8, 16};
  if (smoke) passes = {2};

  std::printf(
      "io_backend (e) metadata-log compaction, F=%.2f: log bytes against "
      "history\n\n",
      fill);
  TablePrinter table({"passes", "appended MB", "on disk MB", "model MB",
                      "compactions", "open ms"});
  const double mb = 1.0 / (1024.0 * 1024.0);
  for (uint32_t n : passes) {
    const std::string meta = FileBackend::MetaPath(dir, 0);
    uint64_t before_rewrites = 0;  // log bytes sampled before each rewrite
    Status st;
    auto store = ShardedStore::Create(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &st,
        [&](uint32_t) {
          auto file = std::make_unique<FileBackend>();
          file->SetCompactionStepHook(
              [&](FileBackend::CompactionStep step) {
                struct stat sb;
                if (step == FileBackend::CompactionStep::kTempWritten &&
                    ::stat(meta.c_str(), &sb) == 0) {
                  before_rewrites += static_cast<uint64_t>(sb.st_size);
                }
                return true;
              });
          return file;
        });
    if (store == nullptr) {
      std::fprintf(stderr, "compaction panel: %s\n", st.ToString().c_str());
      continue;
    }
    store->SetExactFrequencyOracle(
        [&workload](PageId p) { return workload.ExactFrequency(p); });
    std::vector<uint8_t> present(user_pages, 0);
    Rng rng(7);
    for (PageId p = 0; p < user_pages && st.ok(); ++p) {
      st = store->Write(p);
      present[p] = 1;
    }
    for (uint64_t i = 0; i < n * user_pages && st.ok(); ++i) {
      const PageId p = workload.NextPage(rng);
      if (present[p] != 0 && rng.NextBool(0.05)) {
        st = store->Delete(p);
        present[p] = 0;
      } else {
        st = store->Write(p);
        present[p] = 1;
      }
    }
    const StoreStats stats = store->AggregatedStats();
    if (st.ok()) st = store->Close();
    store.reset();
    if (!st.ok()) {
      std::fprintf(stderr, "compaction panel: %s\n", st.ToString().c_str());
      continue;
    }

    struct stat sb;
    const uint64_t on_disk =
        ::stat(meta.c_str(), &sb) == 0 ? static_cast<uint64_t>(sb.st_size)
                                       : 0;
    const uint64_t appended =
        on_disk + before_rewrites - stats.meta_compaction_bytes;
    uint64_t slots = 0;
    {
      FileBackend reader;
      StoreStats unused;
      BackendRecovery rec;
      if (reader.Open(cfg, 0, 1, &unused, /*recover=*/true).ok() &&
          reader.Scan(&rec).ok()) {
        slots = rec.segments.size();
      }
      (void)reader.Close();
    }
    const uint64_t deleted = static_cast<uint64_t>(
        std::count(present.begin(), present.end(), uint8_t{0}));
    const uint64_t pages_per_segment = cfg.segment_bytes / cfg.page_bytes;
    const uint64_t model = (24 + 24) + (24 + 16) +
                           slots * (24 + 48 + pages_per_segment * 48) +
                           deleted * (24 + 24);

    const auto t0 = std::chrono::steady_clock::now();
    auto reopened = ShardedStore::Open(
        cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &st);
    const double open_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (reopened == nullptr) {
      std::fprintf(stderr, "compaction panel reopen: %s\n",
                   st.ToString().c_str());
      continue;
    }
    (void)reopened->Close();

    std::vector<TablePrinter::Cell> row;
    row.emplace_back(static_cast<int>(n));
    row.emplace_back(static_cast<double>(appended) * mb, 2);
    row.emplace_back(static_cast<double>(on_disk) * mb, 2);
    row.emplace_back(static_cast<double>(model) * mb, 2);
    row.emplace_back(static_cast<int>(stats.meta_compactions));
    row.emplace_back(open_ms, 2);
    table.AddRow(std::move(row));

    bench::JsonRow json("io_backend_meta_compaction");
    json.Num("passes", static_cast<uint64_t>(n))
        .Num("fill", fill)
        .Num("meta_appended_bytes", appended)
        .Num("meta_on_disk_bytes", on_disk)
        .Num("meta_live_model_bytes", model)
        .Num("meta_compactions", stats.meta_compactions)
        .Num("meta_compaction_bytes", stats.meta_compaction_bytes)
        .Num("meta_compaction_seconds", stats.meta_compaction_seconds)
        .Num("open_ms", open_ms);
    bench::Emit(json);
  }
  table.Print(stdout);
  std::printf(
      "appended = bytes the metadata log received (its size without "
      "compaction);\non disk = the log the reopen replays; model = live "
      "records priced from the format.\n\n");
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
  CompactionPanel(fill, dir.path);
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
