// lssbench: end-to-end and per-layer benchmark of the sharded store.
//
//   lssbench --workload NAME [--seed N] [--seconds S] [--trace FILE]
//            [--dir DIR]
//   lssbench --selftest
//
// One invocation runs one named workload (README.md gives each one and
// the reason it is in the set) against the public ShardedStore API. It
// builds the workload's store kSetups times, runs a fixed number of ops
// on the last one (--seconds at the workload's nominal rate, so two
// builds given the same --seconds do identical work), checks every
// output, and prints each metric as "name value unit", then one JSON
// line. Without --trace the metrics are the end-to-end ones; --trace FILE
// wraps every shard's policy and backend in timing decorators
// (tracing.h), prints the per-layer metrics instead, and writes the spans
// to FILE as Chrome trace-event JSON and the per-layer metrics beside it.
//
// Exit status: 0 when every check passed, 1 on a correctness violation
// or a store failure, 2 on a bad argument or a changed input digest.

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "histogram.h"
#include "tracing.h"
#include "workload/generator.h"
#include "workload/zipfian_workload.h"

namespace lssbench {
namespace {

namespace fs = std::filesystem;
using lss::PageId;
using lss::ShardedStore;
using lss::Status;
using lss::StoreConfig;
using lss::StoreStats;

constexpr uint64_t kDefaultSeed = 1;
// Ops are generated in blocks of this many, outside the timed region.
constexpr size_t kBlockOps = 64 * 1024;
// ops_per_s of a live store is the kRateQuantile quantile, over windows of
// kRateWindow consecutive calls (README.md, Steadiness), of each window's
// calls per second spent in them.
constexpr uint64_t kRateWindow = 16 * 1024;
constexpr double kRateQuantile = 0.9;
// Set-up runs this many times per invocation; setup_s is the median and
// the last store built is the one measured.
constexpr int kSetups = 3;
// Reopens of the measured file-backed store, each timed for open_s.
constexpr int kReopens = 3;
// Host-speed probes (HostSpeed) before each set-up and in each recovery
// cycle, besides one every 50 ms of a measured phase's calls.
constexpr int kSetupProbes = 16;
constexpr int kCycleProbes = 4;
// The input digest covers this many generated ops.
constexpr uint64_t kDigestOps = 1 << 20;
constexpr uint32_t kPageBytes = 4096;
constexpr uint32_t kSegmentBytes = 512 * 1024;
// Spans kept by a traced run (tracing.h); later ones are counted and
// dropped.
constexpr size_t kSpanCapacity = 200000;

// crash-recovery: the image's history and each recovery cycle's traffic.
constexpr double kCrashUpdatePasses = 10.0;
constexpr double kCrashDeleteFrac = 0.05;
constexpr uint64_t kCrashTailWrites = 10000;
constexpr size_t kCrashAuditReads = 4096;
constexpr uint64_t kCrashCycleOps = 8000;

struct WorkloadSpec {
  const char* name;
  // File backend with fsync on, async seal, checkpoint_interval_ops 64
  // and delta checkpoints; otherwise the null backend.
  bool durable;
  // Measures recovery of a crashed image instead of a live store.
  bool crash;
  uint32_t shards;
  uint32_t threads;  // client threads
  uint32_t device_mib;
  double fill;  // user pages / device frames
  bool zipf;    // 80-20 Zipfian (theta 0.99); otherwise uniform
  double warmup_passes;  // update passes over the user pages before measuring
  // The measured phase's mix: share of client ops that are ReadPage, and
  // writes per Checkpoint() barrier (0: none), per client.
  double read_frac;
  uint32_t commit_every;
  // Measured client ops per second of --seconds, over all clients (on
  // crash-recovery: recovery cycles per second). About the rate on the
  // reference host, so a run takes about --seconds there; it fixes the
  // run's work, not its duration.
  double nominal_rate;
  // input_digest for kDefaultSeed; a mismatch exits 2.
  uint64_t pinned_digest;
};

// Every workload: 4 KiB pages, 512 KiB segments, clean trigger 4, batch
// 16, write buffer 16 segments, policy MDC.
const WorkloadSpec kWorkloads[] = {
    {"zipf80-1t", false, false, 1, 1, 512, 0.8, true, 8.0, 0.0, 0, 2.5e6,
     0xe52a23f4dc28d1ee},
    {"uniform-4t", false, false, 8, 4, 4096, 0.5, false, 4.0, 0.0, 0, 1.1e6,
     0xddb27df0b00498de},
    {"durable-mixed", true, false, 2, 1, 256, 0.8, true, 4.0, 0.3, 1000, 9e4,
     0xa77ac02405481631},
    {"crash-recovery", true, true, 2, 1, 64, 0.8, true, 0.0, 0.3, 0, 2.6,
     0xf79cc801f0081f07},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

StoreConfig MakeConfig(const WorkloadSpec& w, const std::string& dir) {
  StoreConfig cfg;
  cfg.page_bytes = kPageBytes;
  cfg.segment_bytes = kSegmentBytes;
  cfg.num_segments = w.device_mib * (1024 * 1024 / kSegmentBytes);
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 16;
  lss::ApplyVariantConfig(lss::Variant::kMdc, &cfg);
  if (w.durable) {
    cfg.backend = lss::BackendKind::kFile;
    cfg.backend_dir = dir;
    cfg.backend_fsync = true;
    cfg.async_seal = true;
    cfg.checkpoint_interval_ops = 64;
    cfg.checkpoint_delta = true;
  }
  return cfg;
}

uint64_t UserPages(const WorkloadSpec& w) {
  const StoreConfig cfg = MakeConfig(w, "");
  const uint64_t frames = static_cast<uint64_t>(cfg.num_segments / w.shards) *
                          w.shards * cfg.PagesPerSegment();
  return static_cast<uint64_t>(w.fill * static_cast<double>(frames));
}

// --- Op streams ----------------------------------------------------------

enum class OpKind : uint8_t { kWrite, kRead, kCommit, kDelete };

struct Op {
  PageId page;
  OpKind kind;
};

struct OpMix {
  double read_frac = 0.0;
  double delete_frac = 0.0;
  uint32_t commit_every = 0;  // writes per Checkpoint(); 0 for none
};

/// A client's op sequence, a pure function of its seed. Writes draw from
/// the workload's distribution; reads draw uniformly from the user pages
/// (or from `read_set` when given); a commit follows every
/// `commit_every` writes. With deletes on, the stream tracks which pages
/// are present so that it deletes only present pages.
class OpStream {
 public:
  OpStream(const lss::WorkloadGenerator& gen, uint64_t seed, OpMix mix,
           const std::vector<PageId>* read_set = nullptr)
      : gen_(gen), rng_(seed), mix_(mix), read_set_(read_set) {
    if (mix_.delete_frac > 0) presence_.assign(gen_.NumPages(), 1);
  }

  void Generate(size_t n, std::vector<Op>* out) {
    for (size_t i = 0; i < n; ++i) out->push_back(Next());
  }

  const std::vector<uint8_t>& presence() const { return presence_; }

 private:
  Op Next() {
    if (mix_.commit_every > 0 && writes_since_commit_ >= mix_.commit_every) {
      writes_since_commit_ = 0;
      return {0, OpKind::kCommit};
    }
    const double u = rng_.NextDouble();
    if (u < mix_.read_frac) {
      const PageId p = read_set_ != nullptr
                           ? (*read_set_)[rng_.NextBounded(read_set_->size())]
                           : rng_.NextBounded(gen_.NumPages());
      return {p, OpKind::kRead};
    }
    const PageId p = gen_.NextPage(rng_);
    ++writes_since_commit_;
    if (presence_.empty()) return {p, OpKind::kWrite};
    if (u < mix_.read_frac + mix_.delete_frac && presence_[p] != 0) {
      presence_[p] = 0;
      return {p, OpKind::kDelete};
    }
    presence_[p] = 1;
    return {p, OpKind::kWrite};
  }

  const lss::WorkloadGenerator& gen_;
  lss::Rng rng_;
  OpMix mix_;
  const std::vector<PageId>* read_set_;
  uint32_t writes_since_commit_ = 0;
  std::vector<uint8_t> presence_;
};

// Stream seeds: one tag per purpose, so streams never share a sequence.
uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  return lss::SplitMix64(seed ^ lss::SplitMix64(tag));
}
constexpr uint64_t kTagWarmup = 0x100;   // + client
constexpr uint64_t kTagMeasure = 0x200;  // + client
constexpr uint64_t kTagCrashUpdates = 0x300;
constexpr uint64_t kTagCrashTail = 0x301;
constexpr uint64_t kTagCrashCycle = 0x400;  // + cycle
constexpr uint64_t kTagCrashAudit = 0x500;  // + cycle

OpMix MeasureMix(const WorkloadSpec& w) {
  OpMix mix;
  mix.read_frac = w.read_frac;
  mix.commit_every = w.commit_every;
  return mix;
}

/// Ops per client of the measured phase, in whole blocks.
uint64_t MeasuredOps(const WorkloadSpec& w, double seconds) {
  const double blocks = seconds * w.nominal_rate / w.threads / kBlockOps;
  return std::max<uint64_t>(1, std::llround(blocks)) * kBlockOps;
}

OpMix CrashUpdateMix() {
  OpMix mix;
  mix.delete_frac = kCrashDeleteFrac;
  mix.commit_every = 1000;
  return mix;
}

std::unique_ptr<lss::WorkloadGenerator> MakeGenerator(const WorkloadSpec& w) {
  if (w.zipf) {
    return std::make_unique<lss::ZipfianWorkload>(UserPages(w), 0.99);
  }
  return std::make_unique<lss::UniformWorkload>(UserPages(w));
}

/// crash-recovery's inputs and the image they leave, a pure function of
/// the seed.
struct CrashModel {
  std::vector<Op> updates;        // after the fill, up to the barrier
  std::vector<Op> tail;           // unbarriered writes before the crash
  std::vector<uint8_t> present;   // per user page, at the barrier
  std::vector<uint8_t> exempt;    // per user page: written by the tail
  std::vector<PageId> audit_set;  // present at the barrier and not exempt
};

CrashModel MakeCrashModel(const lss::WorkloadGenerator& gen, uint64_t seed) {
  CrashModel m;
  OpStream updates(gen, StreamSeed(seed, kTagCrashUpdates), CrashUpdateMix());
  updates.Generate(static_cast<size_t>(kCrashUpdatePasses *
                                       static_cast<double>(gen.NumPages())),
                   &m.updates);
  m.present = updates.presence();
  OpStream tail(gen, StreamSeed(seed, kTagCrashTail), OpMix{});
  tail.Generate(kCrashTailWrites, &m.tail);
  m.exempt.assign(gen.NumPages(), 0);
  for (const Op& op : m.tail) m.exempt[op.page] = 1;
  for (PageId p = 0; p < gen.NumPages(); ++p) {
    if (m.present[p] != 0 && m.exempt[p] == 0) m.audit_set.push_back(p);
  }
  return m;
}

/// The stream of recovery cycle `cycle`: its reads draw from the pages
/// the audit knows are present (the cycles' writes never remove one).
OpStream CrashCycleStream(const WorkloadSpec& w,
                          const lss::WorkloadGenerator& gen, uint64_t seed,
                          const CrashModel& model, uint64_t cycle) {
  return OpStream(gen, StreamSeed(seed, kTagCrashCycle + cycle), MeasureMix(w),
                  &model.audit_set);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Hash of the workload's configuration and the first kDigestOps ops of
/// its measured streams (for crash-recovery: the image's updates and
/// tail, then the first recovery cycle's stream), so an edit to the
/// generators cannot change the benchmark's inputs unnoticed.
uint64_t InputDigest(const WorkloadSpec& w, const lss::WorkloadGenerator& gen,
                     uint64_t seed) {
  char config[512];
  int n = std::snprintf(
      config, sizeof(config),
      "%s durable=%d crash=%d shards=%u threads=%u device_mib=%u fill=%.6f "
      "zipf=%d warmup=%.3f read=%.6f commit=%u rate=%.1f pages=%" PRIu64,
      w.name, w.durable, w.crash, w.shards, w.threads, w.device_mib, w.fill,
      w.zipf, w.warmup_passes, w.read_frac, w.commit_every, w.nominal_rate,
      gen.NumPages());
  if (w.crash) {
    n += std::snprintf(config + n, sizeof(config) - n,
                       " updates=%.3f deletes=%.3f tail=%" PRIu64
                       " audit=%zu cycle=%" PRIu64,
                       kCrashUpdatePasses, kCrashDeleteFrac, kCrashTailWrites,
                       kCrashAuditReads, kCrashCycleOps);
  }
  uint64_t h = Fnv1a(0xcbf29ce484222325ull, config, static_cast<size_t>(n));
  uint64_t left = kDigestOps;
  auto hash = [&h, &left](const std::vector<Op>& ops) {
    for (size_t i = 0; i < ops.size() && left > 0; ++i, --left) {
      h = Fnv1a(h, &ops[i].kind, sizeof(ops[i].kind));
      h = Fnv1a(h, &ops[i].page, sizeof(ops[i].page));
    }
  };
  std::vector<Op> ops;
  if (w.crash) {
    const CrashModel model = MakeCrashModel(gen, seed);
    hash(model.updates);
    hash(model.tail);
    CrashCycleStream(w, gen, seed, model, 0).Generate(left, &ops);
    hash(ops);
    return h;
  }
  for (uint32_t t = 0; t < w.threads; ++t) {
    ops.clear();
    OpStream(gen, StreamSeed(seed, kTagMeasure + t), MeasureMix(w))
        .Generate(kDigestOps / w.threads, &ops);
    hash(ops);
  }
  return h;
}

// --- Client loop ---------------------------------------------------------

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct ClientStats {
  // Successful calls only (reads: those that returned verified data).
  // Each batch holds ten samples beyond its highest quantile. A commit's
  // cost follows the store's cleaning state, which moves in stretches of
  // hundreds of commits, so commits keep one histogram over the run: a
  // median over batches would pick one stretch.
  BatchedLatency write{5000, {0.5, 0.99}};
  BatchedLatency read{1000, {0.5, 0.99}};
  LatencyHistogram commit;
  // Per window of kRateWindow consecutive calls other than Checkpoint():
  // the calls per second spent in them. A Checkpoint() waits for fsync on
  // the host's shared disk, which doubled its time between runs of the
  // same code; it is timed as `commit` instead.
  std::vector<double> window_rates;
  // Totals over all of the client's calls other than Checkpoint().
  uint64_t busy_ns = 0;
  uint64_t busy_calls = 0;
  // Traced runs: writes that enclosed a SelectVictims, and the rest; and
  // every call (of any kind) that enclosed one.
  LatencyHistogram write_clean, write_plain, clean_calls;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // ReadPage's documented refusal of a page still buffered or in an open
  // segment; not a failure.
  uint64_t unsealed = 0;
  // Traced runs: every client call's count and duration by layer, and
  // the policy / backend time nested inside writes.
  uint64_t calls[kLayers] = {};
  uint64_t ns[kLayers] = {};
  uint64_t write_policy_ns = 0;
  uint64_t write_backend_ns = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  void Merge(const ClientStats& o) {
    write.Merge(o.write);
    read.Merge(o.read);
    commit.Merge(o.commit);
    window_rates.insert(window_rates.end(), o.window_rates.begin(),
                        o.window_rates.end());
    busy_ns += o.busy_ns;
    busy_calls += o.busy_calls;
    write_clean.Merge(o.write_clean);
    write_plain.Merge(o.write_plain);
    clean_calls.Merge(o.clean_calls);
    attempted += o.attempted;
    failed += o.failed;
    unsealed += o.unsealed;
    for (size_t i = 0; i < kLayers; ++i) {
      calls[i] += o.calls[i];
      ns[i] += o.ns[i];
    }
    write_policy_ns += o.write_policy_ns;
    write_backend_ns += o.write_backend_ns;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

// Supplies the next block of ops; false when the source is exhausted.
using Refill = std::function<bool(std::vector<Op>*)>;

Layer LayerOf(OpKind kind) {
  switch (kind) {
    case OpKind::kWrite: return Layer::kWrite;
    case OpKind::kRead: return Layer::kRead;
    case OpKind::kCommit: return Layer::kCheckpoint;
    case OpKind::kDelete: break;
  }
  return Layer::kWrite;
}

std::string OpFailure(const Op& op, const Status& s) {
  static const char* const kNames[] = {"Write", "ReadPage", "Checkpoint",
                                       "Delete"};
  return std::string(kNames[static_cast<int>(op.kind)]) + "(" +
         std::to_string(op.page) + "): " + s.ToString();
}

// --- Host speed ------------------------------------------------------------

/// The host is shared, and its other tenants change how fast it runs the
/// same code by up to a third within minutes: the median zipf80-1t
/// throughput of ten consecutive runs moved from 2.0 M to 2.7 M ops/s
/// between two such sets. HostSpeed measures that speed with a fixed probe,
/// and lssbench reports its CPU-bound timings at the probe's nominal
/// speed: a time multiplied by Factor(), a rate divided by it. The probe is
/// the same code on both sides of a comparison, so a change to the store
/// leaves the factor alone.
///
/// The probe is a chain of dependent reads of a 32 MiB table of random
/// words, each address a hash of the last word read, continuing where the
/// thread's last probe stopped. The table is 16 times a core's 2 MiB L2
/// and fits the shared L3, so the probe waits on the caches the host's
/// tenants share, as the store's metadata accesses do, and whatever the
/// store or earlier probes left in L2 serves at most a sixteenth of its
/// reads. Over the same twelve runs of each workload, scaling cut the
/// spread of ops_per_s from 0.074 of its median to 0.036 on uniform-4t,
/// from 0.075 to 0.052 on durable-mixed and from 0.121 to 0.086 on
/// crash-recovery, and left zipf80-1t's at 0.04. It narrowed the spread
/// of write_p99_us on all four, and widened only durable-mixed's setup_s
/// (0.20 to 0.23), whose set-up waits on fsync. A second chain over a
/// 2 MiB table read in full first, which stays in L2 only while no other
/// tenant shares the core, tracked zipf80-1t better and widened
/// uniform-4t's spreads, so the probe does without it.
class HostSpeed {
 public:
  /// Probe reads per second at which Factor() is 1: about the median of
  /// this host.
  static constexpr double kNominalRate = 5.5e6;

  /// Runs the probe `times` times on the calling thread and records each
  /// rate. Safe to call from several threads.
  void Probe(int times) {
    for (int i = 0; i < times; ++i) {
      const double rate = ProbeRate();
      std::lock_guard<std::mutex> lock(mu_);
      rates_.push_back(rate);
    }
  }

  /// The median probe rate over kNominalRate; 1 before any probe.
  double Factor() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rates_.empty() ? 1.0 : Median(rates_) / kNominalRate;
  }

  size_t samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rates_.size();
  }

 private:
  static constexpr size_t kWords = 4 * 1024 * 1024;  // 32 MiB
  static constexpr uint64_t kReads = 8192;           // about 1.5 ms

  static double ProbeRate() {
    static const std::vector<uint64_t> table = [] {
      std::vector<uint64_t> t(kWords);
      uint64_t x = 1;
      for (uint64_t& v : t) v = x = lss::SplitMix64(x);
      return t;
    }();
    static thread_local uint64_t x = 0;
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kReads; ++i) {
      x = lss::SplitMix64(x ^ table[x & (kWords - 1)]);
    }
    return static_cast<double>(kReads) / Seconds(NowNs() - t0);
  }

  mutable std::mutex mu_;
  std::vector<double> rates_;
};

/// What a client does every 50 ms besides its calls. With `rotate`, it
/// moves to the next CPU it may run on: a client that stays on one CPU
/// runs at that CPU's speed, which the host's other tenants set and
/// change, and ten 8-second zipf80-1t runs spread by 0.15 of their median
/// when the scheduler placed the client and by 0.045 in the same minutes
/// when it visited every CPU in turn. Only a workload's single client
/// rotates: several clients already span the CPUs, and would share one if
/// they rotated. With `speed`, it runs the host-speed probe once.
struct Pacing {
  bool rotate = false;
  HostSpeed* speed = nullptr;
};

/// Applies a Pacing on the calling thread, and gives the thread back all
/// of its CPUs when destroyed.
class Pacer {
 public:
  explicit Pacer(Pacing pacing) : speed_(pacing.speed) {
    if (!pacing.rotate || sched_getaffinity(0, sizeof(mask_), &mask_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~Pacer() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Does the periodic work when kPeriodNs have passed since it last did
  /// (or since construction); true if it did any.
  bool MaybeTick(uint64_t now_ns) {
    const bool idle = cpus_.empty() && speed_ == nullptr;
    if (idle || now_ns - last_ns_ < kPeriodNs) return false;
    last_ns_ = now_ns;
    if (!cpus_.empty()) {
      // Continues across pacers of the same thread, so short phases do
      // not all start on the first CPU.
      static thread_local size_t next = 0;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next++ % cpus_.size()], &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
    }
    if (speed_ != nullptr) speed_->Probe(1);
    return true;
  }

 private:
  static constexpr uint64_t kPeriodNs = 50'000'000;
  HostSpeed* speed_;
  cpu_set_t mask_ = {};
  std::vector<int> cpus_;
  uint64_t last_ns_ = 0;
};

/// Closed loop: each op is issued when the previous one returns. One
/// steady_clock read per op bounds consecutive ops; the clock is read
/// once more after untimed follow-up work (a payload check, a finished
/// latency batch, the pacer's work) so that work is not charged to the
/// next op.
template <bool kTraced>
void RunOps(ShardedStore& store, const Refill& refill, Tracer* tracer,
            Pacing pacing, ClientStats* cs) {
  Pacer pacer(pacing);
  std::vector<Op> block;
  std::vector<uint8_t> data;
  uint64_t sampled = 0;
  // Time in, and count of, the current rate window's calls; a window
  // left unfinished when the ops run out is dropped.
  uint64_t window_ns = 0;
  uint64_t window_calls = 0;
  for (;;) {
    block.clear();
    if (!refill(&block)) return;
    uint64_t t0 = NowNs();
    for (const Op& op : block) {
      ClientCall call;
      if constexpr (kTraced) {
        if (++sampled % Tracer::kSampleEvery == 0) call.id = tracer->NewId();
        tls_call = &call;
      }
      Status s;
      switch (op.kind) {
        case OpKind::kWrite: s = store.Write(op.page); break;
        case OpKind::kRead: s = store.ReadPage(op.page, &data); break;
        case OpKind::kCommit: s = store.Checkpoint(); break;
        case OpKind::kDelete: s = store.Delete(op.page); break;
      }
      uint64_t t1 = NowNs();
      const uint64_t d = t1 - t0;
      ++cs->attempted;
      if (op.kind != OpKind::kCommit) {
        cs->busy_ns += d;
        ++cs->busy_calls;
        window_ns += d;
        if (++window_calls == kRateWindow) {
          cs->window_rates.push_back(static_cast<double>(window_calls) /
                                     Seconds(window_ns));
          window_ns = 0;
          window_calls = 0;
        }
      }
      if constexpr (kTraced) {
        tls_call = nullptr;
        const size_t l = static_cast<size_t>(LayerOf(op.kind));
        ++cs->calls[l];
        cs->ns[l] += d;
        if (op.kind == OpKind::kWrite) {
          cs->write_policy_ns += call.policy_ns;
          cs->write_backend_ns += call.backend_ns;
          (call.cleaned ? cs->write_clean : cs->write_plain).Record(d);
        }
        if (call.cleaned) cs->clean_calls.Record(d);
        if (call.id != 0) tracer->Record(LayerOf(op.kind), t0, t1, call.id, 0);
      }
      if (!s.ok()) {
        if (op.kind == OpKind::kRead &&
            s.code() == Status::Code::kInvalidArgument) {
          ++cs->unsealed;
        } else {
          cs->Fail(OpFailure(op, s));
        }
      } else {
        switch (op.kind) {
          case OpKind::kWrite:
            if (cs->write.Record(d)) t1 = NowNs();
            break;
          case OpKind::kRead:
            if (data.size() == kPageBytes &&
                lss::VerifyPagePayload(op.page, kPageBytes, data.data())) {
              cs->read.Record(d);
            } else {
              cs->Fail("ReadPage(" + std::to_string(op.page) +
                       "): payload mismatch");
            }
            t1 = NowNs();
            break;
          case OpKind::kCommit:
            cs->commit.Record(d);
            break;
          case OpKind::kDelete: break;
        }
      }
      if (pacer.MaybeTick(t1)) t1 = NowNs();
      t0 = t1;
    }
  }
}

struct RunContext {
  const WorkloadSpec& w;
  const lss::WorkloadGenerator& gen;
  uint64_t seed;
  double seconds;
  std::string dir;   // scratch directory for file-backed workloads
  Tracer* tracer;    // null for an untraced run
  HostSpeed* speed;  // null: the host's speed is not probed
};

/// A workload's client rotates over the CPUs when it is the only one; a
/// measured phase also probes the host's speed.
Pacing SetupPacing(const WorkloadSpec& w) { return {w.threads == 1, nullptr}; }
Pacing MeasuredPacing(const RunContext& ctx) {
  return {ctx.w.threads == 1, ctx.speed};
}

/// The calls of a measured phase.
void RunClient(const RunContext& ctx, ShardedStore& store,
               const Refill& refill, ClientStats* cs) {
  if (ctx.tracer != nullptr) {
    RunOps<true>(store, refill, ctx.tracer, MeasuredPacing(ctx), cs);
  } else {
    RunOps<false>(store, refill, nullptr, MeasuredPacing(ctx), cs);
  }
}

/// Exactly `total` of the stream's ops, kBlockOps at a time, so a
/// stream's presence model never runs ahead of the store.
Refill StreamRefill(OpStream* stream, uint64_t total) {
  auto left = std::make_shared<uint64_t>(total);
  return [stream, left](std::vector<Op>* block) {
    if (*left == 0) return false;
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kBlockOps, *left));
    *left -= n;
    stream->Generate(n, block);
    return true;
  };
}

/// `ops` as a single block.
Refill OnceRefill(const std::vector<Op>* ops) {
  auto given = std::make_shared<bool>(false);
  return [ops, given](std::vector<Op>* block) {
    if (*given) return false;
    *block = *ops;
    *given = true;
    return true;
  };
}

/// Runs fn(0..n-1), client 0 on the calling thread.
void OnThreads(uint32_t n, const std::function<void(uint32_t)>& fn) {
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t < n; ++t) threads.emplace_back(fn, t);
  fn(0);
  for (std::thread& th : threads) th.join();
}

// --- Stores ----------------------------------------------------------------

lss::PolicyFactory PolicyFactoryFor(Tracer* tracer) {
  return [tracer]() -> std::unique_ptr<lss::CleaningPolicy> {
    auto policy = lss::MakePolicy(lss::Variant::kMdc);
    if (tracer == nullptr) return policy;
    return std::make_unique<TracingPolicy>(std::move(policy), tracer);
  };
}

lss::BackendFactory BackendFactoryFor(const StoreConfig& cfg, Tracer* tracer) {
  if (tracer == nullptr) return nullptr;
  return [cfg, tracer](uint32_t) -> std::unique_ptr<lss::SegmentBackend> {
    return std::make_unique<TracingBackend>(lss::MakeBackend(cfg), tracer);
  };
}

Status RemoveContents(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    fs::remove_all(e.path(), ec);
    if (ec) return Status::Corruption("cannot remove " + e.path().string());
  }
  return ec ? Status::Corruption("cannot list " + dir) : Status::OK();
}

struct FileUsage {
  uint64_t dat_alloc_bytes = 0;  // st_blocks * 512 of the .dat files
  uint64_t meta_bytes = 0;       // sizes of the .meta files
};

FileUsage StoreFiles(const std::string& dir) {
  FileUsage u;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    struct stat st;
    if (::stat(e.path().c_str(), &st) != 0) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".dat") {
      u.dat_alloc_bytes += static_cast<uint64_t>(st.st_blocks) * 512;
    }
    if (ext == ".meta") u.meta_bytes += static_cast<uint64_t>(st.st_size);
  }
  return u;
}

/// Device bytes the store occupies per live user byte. File backend: the
/// allocated .dat bytes plus the .meta log. Null backend: every segment
/// not in a free pool, which is what its files would hold.
double SpaceAmp(const ShardedStore& store, const StoreConfig& cfg,
                uint64_t live_pages) {
  if (live_pages == 0) return 0.0;
  double used = 0.0;
  if (cfg.backend == lss::BackendKind::kNull) {
    for (uint32_t i = 0; i < store.num_shards(); ++i) {
      const size_t free = store.WithShardLocked(
          i, [](const lss::StoreShard& s) { return s.FreeSegmentCount(); });
      used += static_cast<double>(store.shard_config().num_segments - free) *
              cfg.segment_bytes;
    }
  } else {
    const FileUsage u = StoreFiles(cfg.backend_dir);
    used = static_cast<double>(u.dat_alloc_bytes + u.meta_bytes);
  }
  return used / (static_cast<double>(live_pages) * kPageBytes);
}

/// Device bytes written per user byte. File backend: everything the
/// backend wrote (payloads, checkpoints, metadata). Null backend, which
/// writes nothing: the whole segments its seals would have written.
double DeviceBytesPerUserByte(const StoreStats& s, const StoreConfig& cfg) {
  if (cfg.backend != lss::BackendKind::kNull) return s.DeviceBytesPerUserByte();
  if (s.user_bytes_written == 0) return 0.0;
  return static_cast<double>(s.user_segments_sealed + s.gc_segments_sealed) *
         cfg.segment_bytes / static_cast<double>(s.user_bytes_written);
}

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Runs ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOutput {
  ClientStats clients;      // the measured phase (recovery cycles)
  double measured_s = 0.0;  // wall time of the measured phase
  double ops_per_s = 0.0;   // its rate over op blocks (cycles)
  std::vector<double> setup_s;
  std::vector<double> open_s;
  // Counters behind wamp and device bytes: the measured phase's
  // (crash-recovery: the image's updates).
  StoreStats phase;
  StoreStats run;  // the measured phase's (recovery cycles'): per-layer
  double space_amp = 0.0;
  // crash-recovery image
  FileUsage image;
  uint64_t recovered_live_pages = 0;
  // HostSpeed::Factor() over the run, and the probes behind it.
  double host_speed = 1.0;
  size_t host_probes = 0;
};

/// Runs fn(client, stats) for every client of the workload; the first
/// failure a client recorded becomes the status.
Status OnClients(const RunContext& ctx,
                 const std::function<void(uint32_t, ClientStats*)>& fn) {
  std::vector<ClientStats> stats(ctx.w.threads);
  OnThreads(ctx.w.threads, [&](uint32_t t) { fn(t, &stats[t]); });
  for (const ClientStats& cs : stats) {
    if (cs.failed != 0) return Status::Corruption("setup: " + cs.first_failure);
  }
  return Status::OK();
}

/// Writes every user page once, the clients taking equal ranges.
Status Fill(const RunContext& ctx, ShardedStore& store) {
  const uint64_t pages = ctx.gen.NumPages();
  const uint32_t n = ctx.w.threads;
  return OnClients(ctx, [&](uint32_t t, ClientStats* cs) {
    for (PageId p = pages * t / n; p < pages * (t + 1) / n; ++p) {
      Status s = store.Write(p);
      if (!s.ok()) {
        cs->Fail("fill Write(" + std::to_string(p) + "): " + s.ToString());
        return;
      }
    }
  });
}

/// The workload's warm-up passes of updates, spread over the clients.
Status Warm(const RunContext& ctx, ShardedStore& store) {
  const uint64_t writes =
      static_cast<uint64_t>(ctx.w.warmup_passes *
                            static_cast<double>(ctx.gen.NumPages())) /
      ctx.w.threads;
  return OnClients(ctx, [&](uint32_t t, ClientStats* cs) {
    OpStream warm(ctx.gen, StreamSeed(ctx.seed, kTagWarmup + t), OpMix{});
    RunOps<false>(store, StreamRefill(&warm, writes), nullptr,
                  SetupPacing(ctx.w), cs);
  });
}

/// The measured phase of a live-store workload: MeasuredOps ops of its mix
/// per client, traced when the run is, into the empty `out->clients`.
/// Sets the wall time and ops_per_s: the clients' count (they run side by
/// side) times the kRateQuantile quantile of the window rates.
void RunMeasured(const RunContext& ctx, ShardedStore& store, RunOutput* out) {
  const uint32_t clients = ctx.w.threads;
  const uint64_t ops = MeasuredOps(ctx.w, ctx.seconds);
  std::vector<OpStream> streams;
  for (uint32_t t = 0; t < clients; ++t) {
    streams.emplace_back(ctx.gen, StreamSeed(ctx.seed, kTagMeasure + t),
                         MeasureMix(ctx.w));
  }
  std::vector<ClientStats> stats(clients);
  const uint64_t start = NowNs();
  OnThreads(clients, [&](uint32_t t) {
    RunClient(ctx, store, StreamRefill(&streams[t], ops), &stats[t]);
  });
  out->measured_s = Seconds(NowNs() - start);
  for (const ClientStats& cs : stats) out->clients.Merge(cs);
  out->ops_per_s =
      clients * SampleQuantile(out->clients.window_rates, kRateQuantile);
}

/// Live-store workloads: set up kSetups times, then run the measured phase
/// on the last store.
Status RunLive(const RunContext& ctx, RunOutput* out) {
  const WorkloadSpec& w = ctx.w;
  const bool traced = ctx.tracer != nullptr;
  const std::string store_dir = ctx.dir.empty() ? "" : ctx.dir + "/store";
  const StoreConfig cfg = MakeConfig(w, store_dir);
  std::unique_ptr<ShardedStore> store;
  // Drops the previous store (and its files) and creates an empty one;
  // `*start` is when Create began.
  auto create = [&](uint64_t* start) {
    store.reset();
    if (w.durable) {
      Status s = RemoveContents(store_dir);
      if (!s.ok()) return s;
    }
    *start = NowNs();
    Status s;
    store = ShardedStore::Create(cfg, w.shards, PolicyFactoryFor(ctx.tracer),
                                 &s, BackendFactoryFor(cfg, ctx.tracer));
    if (store == nullptr) return Status(s.code(), "Create: " + s.message());
    return Status::OK();
  };
  if (w.durable) fs::create_directories(store_dir);
  for (int i = 0; i < kSetups; ++i) {
    if (ctx.speed != nullptr) ctx.speed->Probe(kSetupProbes);
    uint64_t t0 = 0;
    Status s = create(&t0);
    if (s.ok()) s = Fill(ctx, *store);
    if (s.ok()) s = Warm(ctx, *store);
    if (!s.ok()) return s;
    store->ResetMeasurement();
    out->setup_s.push_back(Seconds(NowNs() - t0));
  }

  if (traced) ctx.tracer->Arm(true);
  RunMeasured(ctx, *store, out);
  if (traced) ctx.tracer->Arm(false);
  Status s;
  if (w.durable) {
    // Untimed barrier, so the I/O threads' counters have settled.
    ++out->clients.attempted;
    s = store->Checkpoint();
    if (!s.ok()) out->clients.Fail("Checkpoint: " + s.ToString());
  }
  out->phase = store->AggregatedStats();
  out->run = out->phase;
  const uint64_t live = store->LivePageCount();
  if (!w.durable) out->space_amp = SpaceAmp(*store, cfg, live);

  // Untimed checks.
  ++out->clients.attempted;
  s = store->CheckInvariants();
  if (!s.ok()) out->clients.Fail("CheckInvariants: " + s.ToString());
  s = store->Close();
  if (!s.ok()) out->clients.Fail("Close: " + s.ToString());
  if (w.durable) out->space_amp = SpaceAmp(*store, cfg, live);
  store.reset();
  // A durable store's open_s is reopening it after the clean Close, which
  // replays its metadata log; the reopened store must hold every page.
  for (int i = 0; w.durable && i < kReopens; ++i) {
    const uint64_t t = NowNs();
    auto reopened = ShardedStore::Open(cfg, w.shards, PolicyFactoryFor(nullptr),
                                       &s);
    out->open_s.push_back(Seconds(NowNs() - t));
    ++out->clients.attempted;
    if (reopened == nullptr) {
      out->clients.Fail("reopen: " + s.ToString());
      break;
    }
    s = reopened->CheckInvariants();
    if (s.ok() && reopened->LivePageCount() != live) {
      s = Status::Corruption("reopened store lost pages");
    }
    if (s.ok()) s = reopened->Close();
    if (!s.ok()) out->clients.Fail("reopen: " + s.ToString());
  }
  return Status::OK();
}

/// Builds the crashed image in `image_dir`: fill, `model.updates`, a
/// Checkpoint() barrier, `model.tail`, then a simulated power loss at the
/// next backend operation of every shard. `*history` receives the
/// counters of the updates.
///
/// The image is written with synchronous seals, so the power loss always
/// hits the first operation of Close() and the image is a function of the
/// seed. With the seal pipeline's I/O threads the loss lands wherever
/// they are, and for some seeds (307: two builds in five) the store then
/// cannot reopen the image ("no slot available to materialise re-homed
/// entries"), so runs of the same seed would fail at random.
Status BuildCrashImage(const RunContext& ctx, const CrashModel& model,
                       const std::string& image_dir, StoreStats* history) {
  const WorkloadSpec& w = ctx.w;
  StoreConfig cfg = MakeConfig(w, image_dir);
  cfg.async_seal = false;
  std::vector<lss::FaultInjectionBackend*> faults(w.shards, nullptr);
  Status s;
  auto store = ShardedStore::Create(
      cfg, w.shards, PolicyFactoryFor(nullptr), &s,
      [&faults](uint32_t shard) -> std::unique_ptr<lss::SegmentBackend> {
        auto fault = std::make_unique<lss::FaultInjectionBackend>(
            std::make_unique<lss::FileBackend>());
        faults[shard] = fault.get();
        return fault;
      });
  if (store == nullptr) return Status(s.code(), "Create: " + s.message());
  s = Fill(ctx, *store);
  if (!s.ok()) return s;
  store->ResetMeasurement();

  ClientStats cs;
  RunOps<false>(*store, OnceRefill(&model.updates), nullptr, SetupPacing(w),
                &cs);
  s = store->Checkpoint();
  if (cs.failed != 0 || !s.ok()) {
    return Status::Corruption(
        "crash image updates: " +
        (cs.failed != 0 ? cs.first_failure : s.ToString()));
  }
  *history = store->AggregatedStats();
  RunOps<false>(*store, OnceRefill(&model.tail), nullptr, SetupPacing(w), &cs);
  if (cs.failed != 0) {
    return Status::Corruption("crash image tail: " + cs.first_failure);
  }
  for (uint32_t i = 0; i < w.shards; ++i) {
    faults[i]->CrashAfterOps(0, ctx.seed * 1000003u + i);
  }
  (void)store->Close();  // the first backend op of every shard dies
  store.reset();
  return Status::OK();
}

/// Flushes every file in `dir` to the device, so that no writeback of
/// them overlaps a later timed phase.
Status SyncFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    const bool ok = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!ok) return Status::Corruption("cannot fsync " + e.path().string());
  }
  return ec ? Status::Corruption("cannot list " + dir) : Status::OK();
}

/// Copies every file of `from` into `to` and flushes the copies.
Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(from, ec)) {
    fs::copy_file(e.path(), fs::path(to) / e.path().filename(),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) return Status::Corruption("copy " + e.path().string() + ": " +
                                      ec.message());
  }
  if (ec) return Status::Corruption("cannot list " + from);
  return SyncFiles(to);
}

/// crash-recovery: build the image kSetups times, then recover copies of
/// it for --seconds at the nominal cycle rate. A cycle times Open, audits
/// every page against its barrier-time presence (untimed), times reading
/// back kCrashAuditReads sampled pages and kCrashCycleOps client ops on
/// the recovered store, then checks and closes it (untimed). The first
/// cycle is a warm-up: its timings are dropped.
Status RunCrash(const RunContext& ctx, RunOutput* out) {
  const WorkloadSpec& w = ctx.w;
  const bool traced = ctx.tracer != nullptr;
  const std::string image_dir = ctx.dir + "/image";
  const std::string run_dir = ctx.dir + "/run";
  fs::create_directories(image_dir);
  fs::create_directories(run_dir);
  const CrashModel model = MakeCrashModel(ctx.gen, ctx.seed);
  for (int i = 0; i < kSetups; ++i) {
    Status s = RemoveContents(image_dir);
    if (!s.ok()) return s;
    if (ctx.speed != nullptr) ctx.speed->Probe(kSetupProbes);
    const uint64_t t0 = NowNs();
    s = BuildCrashImage(ctx, model, image_dir, &out->phase);
    if (!s.ok()) return s;
    out->setup_s.push_back(Seconds(NowNs() - t0));
  }
  out->image = StoreFiles(image_dir);
  Status synced = SyncFiles(image_dir);
  if (!synced.ok()) return synced;

  const StoreConfig cfg = MakeConfig(w, run_dir);
  if (traced) ctx.tracer->Arm(true);
  // At least three cycles: the first is a warm-up and is dropped.
  const uint64_t cycles = std::max<uint64_t>(
      3, static_cast<uint64_t>(std::llround(ctx.seconds * w.nominal_rate)));
  uint64_t measured_ns = 0;
  std::vector<double> opens;
  // Per cycle: read-backs and client ops per second of Open and the calls.
  std::vector<double> rates;
  for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
    Status s = RemoveContents(run_dir);
    if (s.ok()) s = CopyDir(image_dir, run_dir);
    if (!s.ok()) return s;

    const uint64_t t0 = NowNs();
    auto store =
        ShardedStore::Open(cfg, w.shards, PolicyFactoryFor(ctx.tracer), &s);
    const uint64_t t1 = NowNs();
    ClientStats& cs = out->clients;
    ++cs.attempted;
    if (store == nullptr) {
      cs.Fail("Open: " + s.ToString());
      break;
    }
    if (traced) {
      ++cs.calls[static_cast<size_t>(Layer::kOpen)];
      cs.ns[static_cast<size_t>(Layer::kOpen)] += t1 - t0;
      ctx.tracer->Record(Layer::kOpen, t0, t1, ctx.tracer->NewId(), 0);
    }

    // Untimed audit: every page acknowledged before the barrier has its
    // barrier-time presence.
    uint64_t audit_ns = NowNs();
    ++cs.attempted;
    s = store->CheckInvariants();
    if (!s.ok()) cs.Fail("recovered CheckInvariants: " + s.ToString());
    for (PageId p = 0; p < model.present.size(); ++p) {
      if (model.exempt[p] != 0) continue;
      ++cs.attempted;
      const bool present = store->Contains(p);
      if (present != (model.present[p] != 0)) {
        cs.Fail("audit: page " + std::to_string(p) +
                (present ? " resurrected" : " lost"));
      } else if (present && store->PageSize(p) != kPageBytes) {
        cs.Fail("audit: page " + std::to_string(p) + " has the wrong size");
      }
    }
    if (cycle == 0) out->recovered_live_pages = store->LivePageCount();
    // A cycle's calls take less than the pacer's period.
    if (ctx.speed != nullptr) ctx.speed->Probe(kCycleProbes);
    audit_ns = NowNs() - audit_ns;

    // Timed: sampled read-back, then client traffic on the recovered
    // store.
    const std::vector<PageId>& set = model.audit_set;
    std::vector<Op> reads;
    lss::Rng rng(StreamSeed(ctx.seed, kTagCrashAudit + cycle));
    for (size_t i = 0; i < kCrashAuditReads && !set.empty(); ++i) {
      reads.push_back({set[rng.NextBounded(set.size())], OpKind::kRead});
    }
    const uint64_t busy_before = cs.busy_ns;
    RunClient(ctx, *store, OnceRefill(&reads), &cs);
    OpStream traffic = CrashCycleStream(w, ctx.gen, ctx.seed, model, cycle);
    RunClient(ctx, *store, StreamRefill(&traffic, kCrashCycleOps), &cs);
    measured_ns += NowNs() - t0 - audit_ns;
    if (cycle > 0) {
      opens.push_back(Seconds(t1 - t0));
      rates.push_back(static_cast<double>(reads.size() + kCrashCycleOps) /
                      Seconds(t1 - t0 + cs.busy_ns - busy_before));
    }

    ++cs.attempted;
    s = store->CheckInvariants();
    if (!s.ok()) cs.Fail("CheckInvariants after traffic: " + s.ToString());
    out->run.Merge(store->AggregatedStats());
    ++cs.attempted;
    s = store->Close();
    if (!s.ok()) cs.Fail("Close: " + s.ToString());
  }
  if (traced) ctx.tracer->Arm(false);
  out->measured_s = Seconds(measured_ns);
  out->ops_per_s = Median(rates);
  out->open_s = opens;
  const uint64_t live = out->recovered_live_pages;
  out->space_amp =
      live == 0 ? 0.0
                : static_cast<double>(out->image.dat_alloc_bytes +
                                      out->image.meta_bytes) /
                      (static_cast<double>(live) * kPageBytes);
  return Status::OK();
}

// --- Metrics -------------------------------------------------------------

double Us(double ns) { return ns * 1e-3; }
double Ms(double ns) { return ns * 1e-6; }

/// Times of CPU-bound work are reported at the host-speed probe's nominal
/// speed (HostSpeed): multiplied by the run's factor, and rates divided by
/// it. Commits wait on fsync, which the probe does not measure, and are
/// reported as measured; so are the per-layer times.
std::vector<Metric> EndToEndMetrics(const RunContext& ctx, const RunOutput& r) {
  const StoreConfig cfg = MakeConfig(ctx.w, ctx.dir);
  const ClientStats& c = r.clients;
  const double f = r.host_speed;
  std::vector<Metric> m = {
      {"setup_s", Median(r.setup_s) * f, "s"},
      {"ops_per_s", r.ops_per_s / f, "ops/s"},
      {"write_p50_us", Us(c.write.Quantile(0)) * f, "us"},
      {"write_p99_us", Us(c.write.Quantile(1)) * f, "us"},
  };
  // Only where the workload's calls include them: Open replays durable
  // state only on the file backend, and only the file-backed workloads
  // read and commit.
  if (!r.open_s.empty()) {
    m.insert(m.begin() + 1, {"open_s", Median(r.open_s) * f, "s"});
  }
  if (c.read.all().count() > 0) {
    m.push_back({"read_p50_us", Us(c.read.Quantile(0)) * f, "us"});
    m.push_back({"read_p99_us", Us(c.read.Quantile(1)) * f, "us"});
  }
  if (c.commit.count() > 0) {
    m.push_back({"commit_p50_ms", Ms(c.commit.Quantile(0.5)), "ms"});
    m.push_back({"commit_p90_ms", Ms(c.commit.Quantile(0.9)), "ms"});
  }
  const std::vector<Metric> rest = {
      {"wamp", r.phase.WriteAmplification(), "ratio"},
      {"device_bytes_per_user_byte", DeviceBytesPerUserByte(r.phase, cfg),
       "ratio"},
      {"space_amp", r.space_amp, "ratio"},
      {"peak_rss_mb", PeakRssMib(), "MiB"},
      {"failed_op_frac",
       c.attempted > 0 ? static_cast<double>(c.failed) /
                             static_cast<double>(c.attempted)
                       : 0.0,
       "ratio"},
      {"host_speed", f, "ratio"},
      {"host_speed.probes", static_cast<double>(r.host_probes), "count"},
      {"wall.setup_s", Median(r.setup_s), "s"},
      {"wall.ops_per_s", r.ops_per_s, "ops/s"},
      {"samples.rate_windows", static_cast<double>(c.window_rates.size()),
       "count"},
      {"samples.write", static_cast<double>(c.write.all().count()), "count"},
      {"samples.read", static_cast<double>(c.read.all().count()), "count"},
      {"samples.commit", static_cast<double>(c.commit.count()), "count"},
      {"batches.write", static_cast<double>(c.write.batches()), "count"},
      {"batches.read", static_cast<double>(c.read.batches()), "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::vector<Metric> PerLayerMetrics(const RunContext& ctx, const RunOutput& r,
                                    const LayerCounters& dec) {
  const ClientStats& c = r.clients;
  const StoreStats& st = r.run;
  auto at = [](const uint64_t* a, Layer l) {
    return static_cast<double>(a[static_cast<size_t>(l)]);
  };
  std::vector<Metric> m;
  const double write_busy = Seconds(c.ns[static_cast<size_t>(Layer::kWrite)]);
  const double write_policy = Seconds(c.write_policy_ns);
  const double write_backend = Seconds(c.write_backend_ns);
  uint64_t call_ns = 0;
  for (uint64_t ns : c.ns) call_ns += ns;
  const double client_s = ctx.w.threads * r.measured_s;
  // At nominal host speed, like ops_per_s, so the two give the tracing
  // overhead.
  m.push_back({"client.ops_per_s", r.ops_per_s / r.host_speed, "ops/s"});
  m.push_back({"client.write_wall_share",
               client_s > 0 ? write_busy / client_s : 0.0, "ratio"});
  m.push_back({"client.call_wall_share",
               client_s > 0 ? Seconds(call_ns) / client_s : 0.0, "ratio"});
  m.push_back({"store.write.calls", at(c.calls, Layer::kWrite), "count"});
  m.push_back({"store.write.busy_s", write_busy, "s"});
  m.push_back(
      {"store.write.self_s", write_busy - write_policy - write_backend, "s"});
  m.push_back({"store.write.policy_s", write_policy, "s"});
  m.push_back({"store.write.backend_s", write_backend, "s"});
  m.push_back({"store.write.clean.calls",
               static_cast<double>(c.write_clean.count()), "count"});
  m.push_back({"store.write.clean.p50_us", Us(c.write_clean.Quantile(0.5)),
               "us"});
  m.push_back({"store.write.clean.p99_us", Us(c.write_clean.Quantile(0.99)),
               "us"});
  m.push_back({"store.clean_calls.calls",
               static_cast<double>(c.clean_calls.count()), "count"});
  m.push_back({"store.clean_calls.p50_us", Us(c.clean_calls.Quantile(0.5)),
               "us"});
  m.push_back({"store.clean_calls.p99_us", Us(c.clean_calls.Quantile(0.99)),
               "us"});
  m.push_back({"store.write.plain.p99_us", Us(c.write_plain.Quantile(0.99)),
               "us"});
  m.push_back({"store.read.calls", at(c.calls, Layer::kRead), "count"});
  m.push_back(
      {"store.read.busy_s", Seconds(c.ns[static_cast<size_t>(Layer::kRead)]),
       "s"});
  m.push_back({"store.read.unsealed", static_cast<double>(c.unsealed),
               "count"});
  m.push_back(
      {"store.checkpoint.calls", at(c.calls, Layer::kCheckpoint), "count"});
  m.push_back({"store.checkpoint.busy_s",
               Seconds(c.ns[static_cast<size_t>(Layer::kCheckpoint)]), "s"});
  m.push_back({"store.open.busy_s", Median(r.open_s), "s"});
  m.push_back({"policy.select_victims.calls",
               at(dec.calls, Layer::kSelectVictims), "count"});
  m.push_back({"policy.select_victims.busy_s",
               Seconds(dec.ns[static_cast<size_t>(Layer::kSelectVictims)]),
               "s"});
  m.push_back({"policy.select_victims.victims",
               static_cast<double>(dec.victims), "count"});
  m.push_back(
      {"policy.placement.calls", at(dec.calls, Layer::kPlacement), "count"});
  m.push_back({"policy.placement.busy_s",
               Seconds(dec.ns[static_cast<size_t>(Layer::kPlacement)]), "s"});
  m.push_back({"clean.cycles", static_cast<double>(st.cleanings), "count"});
  m.push_back(
      {"clean.segments", static_cast<double>(st.segments_cleaned), "count"});
  m.push_back(
      {"clean.pages_moved", static_cast<double>(st.gc_pages_written), "count"});
  m.push_back({"clean.mean_emptiness", st.MeanCleanEmptiness(), "ratio"});
  m.push_back({"pipeline.enqueued", static_cast<double>(st.seal_queue_enqueued),
               "count"});
  m.push_back(
      {"pipeline.stalls", static_cast<double>(st.seal_queue_stalls), "count"});
  m.push_back({"pipeline.group_fsyncs", static_cast<double>(st.group_fsyncs),
               "count"});
  m.push_back({"pipeline.ops_per_group_fsync",
               st.group_fsyncs > 0 ? static_cast<double>(st.group_fsync_ops) /
                                         static_cast<double>(st.group_fsyncs)
                                   : 0.0,
               "ratio"});
  m.push_back(
      {"ckpt.rounds", static_cast<double>(st.checkpoint_rounds), "count"});
  m.push_back({"ckpt.full_records",
               static_cast<double>(st.checkpoint_full_records), "count"});
  m.push_back({"ckpt.delta_records",
               static_cast<double>(st.checkpoint_delta_records), "count"});
  m.push_back({"ckpt.bytes", static_cast<double>(st.checkpoint_bytes_written),
               "bytes"});
  for (size_t l = static_cast<size_t>(Layer::kSeal); l < kLayers; ++l) {
    const std::string name = LayerName(static_cast<Layer>(l));
    m.push_back({name + ".calls", static_cast<double>(dec.calls[l]), "count"});
    m.push_back({name + ".busy_s", Seconds(dec.ns[l]), "s"});
  }
  m.push_back({"device.bytes_written",
               static_cast<double>(st.device_bytes_written), "bytes"});
  m.push_back(
      {"device.write_ops", static_cast<double>(st.device_write_ops), "count"});
  m.push_back(
      {"device.fsyncs", static_cast<double>(st.device_fsyncs), "count"});
  m.push_back({"device.write_s", st.device_write_seconds, "s"});
  m.push_back({"device.fsync_s", st.device_fsync_seconds, "s"});
  m.push_back({"device.bytes_punched",
               static_cast<double>(st.device_bytes_punched), "bytes"});
  const double open_s = Median(r.open_s);
  m.push_back({"recovery.meta_bytes", static_cast<double>(r.image.meta_bytes),
               "bytes"});
  m.push_back({"recovery.dat_alloc_bytes",
               static_cast<double>(r.image.dat_alloc_bytes), "bytes"});
  m.push_back({"recovery.meta_mb_per_s",
               ctx.w.crash && open_s > 0 ? r.image.meta_bytes / 1e6 / open_s
                                          : 0.0,
               "MB/s"});
  m.push_back({"recovery.live_pages",
               static_cast<double>(r.recovered_live_pages), "count"});
  return m;
}

// --- Output --------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// --- CLI -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string trace;
  std::string dir;
  bool selftest = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "lssbench: %s\n"
               "usage: lssbench --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--dir DIR]\n"
               "       lssbench --selftest\n"
               "workloads:",
               problem.c_str());
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (FindWorkload(v) == nullptr) {
        Usage("--workload: unknown workload '" + v + "'");
      }
      a.workload = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      const unsigned long long s = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE) {
        Usage("--seed: '" + v + "' is not an unsigned 64-bit integer");
      }
      a.seed = s;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      const double s = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(s > 0.0) || s > 3600.0) {
        Usage("--seconds: '" + v + "' is not a duration in (0, 3600]");
      }
      a.seconds = s;
    } else if (flag == "--trace") {
      if (v.empty()) Usage("--trace: empty path");
      a.trace = v;
    } else if (flag == "--dir") {
      if (v.empty()) Usage("--dir: empty path");
      a.dir = v;
    } else {
      Usage("unknown argument '" + flag + "'");
    }
  }
  if (!a.selftest && a.workload.empty()) Usage("--workload is required");
  return a;
}

/// The scratch directory of a file-backed run: must be empty (or absent,
/// then created) and writable; everything in it is removed at exit.
class ScratchDir {
 public:
  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    if (path_.empty()) return;
    (void)RemoveContents(path_);
    if (created_) {
      std::error_code ec;
      fs::remove(path_, ec);
    }
  }

  /// Empty string on success, else the problem.
  std::string Init(const std::string& path) {
    std::error_code ec;
    if (fs::exists(path, ec)) {
      if (!fs::is_directory(path, ec)) return "not a directory";
      if (!fs::is_empty(path, ec)) return "not empty";
    } else {
      if (!fs::create_directory(path, ec)) return "cannot create it";
      created_ = true;
    }
    if (::access(path.c_str(), W_OK | X_OK) != 0) return "not writable";
    path_ = path;
    return "";
  }

 private:
  std::string path_;
  bool created_ = false;
};

int RunWorkload(const Args& args) {
  const WorkloadSpec& w = *FindWorkload(args.workload);
  ScratchDir scratch;
  if (w.durable && args.dir.empty()) {
    Usage("--dir: workload " + args.workload + " needs a scratch directory");
  }
  if (!args.dir.empty()) {
    const std::string problem = scratch.Init(args.dir);
    if (!problem.empty()) Usage("--dir '" + args.dir + "': " + problem);
  }
  const auto gen = MakeGenerator(w);
  const uint64_t digest = InputDigest(w, *gen, args.seed);
  std::printf("lssbench workload=%s seed=%" PRIu64 " seconds=%g trace=%s\n",
              w.name, args.seed, args.seconds,
              args.trace.empty() ? "off" : args.trace.c_str());
  std::printf("input_digest 0x%016" PRIx64 "\n", digest);
  if (args.seed == kDefaultSeed && digest != w.pinned_digest) {
    std::fprintf(stderr,
                 "lssbench: input digest 0x%016" PRIx64
                 " for seed %" PRIu64 " differs from the pinned 0x%016" PRIx64
                 ": the workload's inputs changed\n",
                 digest, args.seed, w.pinned_digest);
    return 2;
  }

  std::unique_ptr<Tracer> tracer;
  if (!args.trace.empty()) tracer = std::make_unique<Tracer>(kSpanCapacity);
  HostSpeed speed;
  RunContext ctx{w, *gen, args.seed, args.seconds, args.dir, tracer.get(),
                 &speed};
  RunOutput out;
  const Status s = w.crash ? RunCrash(ctx, &out) : RunLive(ctx, &out);
  if (!s.ok()) {
    std::fprintf(stderr, "lssbench: %s failed: %s\n", w.name,
                 s.ToString().c_str());
    return 1;
  }
  out.host_speed = speed.Factor();
  out.host_probes = speed.samples();

  std::vector<Metric> metrics;
  if (tracer == nullptr) {
    metrics = EndToEndMetrics(ctx, out);
  } else {
    metrics = PerLayerMetrics(ctx, out, tracer->Totals());
    metrics.push_back({"trace.spans", static_cast<double>(tracer->spans()),
                       "count"});
    metrics.push_back({"trace.spans_dropped",
                       static_cast<double>(tracer->dropped()), "count"});
    std::string error;
    std::string layers = args.trace;
    if (layers.size() > 5 &&
        layers.compare(layers.size() - 5, 5, ".json") == 0) {
      layers.resize(layers.size() - 5);
    }
    layers += ".layers.json";
    if (!tracer->WriteChromeTrace(args.trace, &error) ||
        !WriteFile(layers, MetricsJson(metrics) + "\n")) {
      std::fprintf(stderr, "lssbench: --trace: %s\n",
                   error.empty() ? ("cannot write " + layers).c_str()
                                 : error.c_str());
      return 2;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const ClientStats& c = out.clients;
  const bool correct = c.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "lssbench: %" PRIu64 " failed checks; first: %s\n",
                 c.failed, c.first_failure.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"input_digest\": \"0x%016" PRIx64
              "\", \"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              w.name, args.seed, digest, correct ? "true" : "false",
              c.attempted, c.failed, MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- Self-test -----------------------------------------------------------

bool HistogramSelftest() {
  std::mt19937_64 rng(42);
  std::vector<uint64_t> samples;
  std::uniform_real_distribution<double> log_uniform(std::log(100.0),
                                                     std::log(1e10));
  for (int i = 0; i < 200000; ++i) {
    samples.push_back(static_cast<uint64_t>(std::exp(log_uniform(rng))));
  }
  std::normal_distribution<double> narrow(2500.0, 40.0);
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(static_cast<uint64_t>(std::max(1.0, narrow(rng))));
  }
  std::shuffle(samples.begin(), samples.end(), rng);
  LatencyHistogram whole;
  LatencyHistogram parts[4];
  for (size_t i = 0; i < samples.size(); ++i) {
    whole.Record(samples[i]);
    parts[i % 4].Record(samples[i]);
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& p : parts) merged.Merge(p);
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  bool ok = true;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    const double exact = static_cast<double>(sorted[rank - 1]);
    const double got = whole.Quantile(q);
    const double err = std::fabs(got - exact) / exact;
    const bool pass = err <= 0.01 && merged.Quantile(q) == got;
    std::printf("histogram q=%-7g exact=%-14.0f hist=%-16.1f err=%.4f%% %s\n",
                q, exact, got, 100.0 * err, pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  return ok;
}

/// A shortened zipf80-1t with and without the decorators: the null
/// backend with one shard and one client is deterministic, so identical
/// counters show that tracing does not change what the store does.
bool TransparencySelftest() {
  const WorkloadSpec& w = *FindWorkload("zipf80-1t");
  const auto gen = MakeGenerator(w);
  StoreStats result[2];
  for (int traced = 0; traced < 2; ++traced) {
    Tracer tracer(1024);
    Tracer* t = traced != 0 ? &tracer : nullptr;
    const StoreConfig cfg = MakeConfig(w, "");
    Status s;
    auto store = ShardedStore::Create(cfg, w.shards, PolicyFactoryFor(t), &s,
                                      BackendFactoryFor(cfg, t));
    if (store == nullptr) {
      std::printf("transparency: Create failed: %s\n", s.ToString().c_str());
      return false;
    }
    ClientStats cs;
    for (PageId p = 0; p < gen->NumPages(); ++p) (void)store->Write(p);
    OpStream stream(*gen, StreamSeed(kDefaultSeed, kTagMeasure), MeasureMix(w));
    const RunContext ctx{w, *gen, kDefaultSeed, 0.0, "", t, nullptr};
    tracer.Arm(t != nullptr);
    RunClient(ctx, *store, StreamRefill(&stream, 8 * gen->NumPages()), &cs);
    tracer.Arm(false);
    result[traced] = store->AggregatedStats();
    if (cs.failed != 0) {
      std::printf("transparency: %s\n", cs.first_failure.c_str());
      return false;
    }
    if (t != nullptr && tracer.Totals().calls[static_cast<size_t>(
                            Layer::kSelectVictims)] == 0) {
      std::printf("transparency: the decorators saw no SelectVictims\n");
      return false;
    }
  }
  const bool ok =
      result[0].WriteAmplification() == result[1].WriteAmplification() &&
      result[0].gc_pages_written == result[1].gc_pages_written &&
      result[0].segments_cleaned == result[1].segments_cleaned &&
      result[0].gc_pages_written > 0;
  std::printf("transparency: wamp %.6f / %.6f, gc_pages_written %" PRIu64
              " / %" PRIu64 ", segments_cleaned %" PRIu64 " / %" PRIu64
              " (untraced / traced) %s\n",
              result[0].WriteAmplification(), result[1].WriteAmplification(),
              result[0].gc_pages_written, result[1].gc_pages_written,
              result[0].segments_cleaned, result[1].segments_cleaned,
              ok ? "ok" : "FAIL");
  return ok;
}

int Selftest() {
  const bool hist = HistogramSelftest();
  const bool transparent = TransparencySelftest();
  std::printf("selftest %s\n", hist && transparent ? "passed" : "FAILED");
  return hist && transparent ? 0 : 1;
}

}  // namespace
}  // namespace lssbench

int main(int argc, char** argv) {
  const lssbench::Args args = lssbench::ParseArgs(argc, argv);
  if (args.selftest) return lssbench::Selftest();
  return lssbench::RunWorkload(args);
}
