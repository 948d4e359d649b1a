#ifndef LSSBENCH_TRACING_H_
#define LSSBENCH_TRACING_H_

// Layer timing for lssbench's traced runs, measured from outside the
// store: forwarding decorators around each shard's CleaningPolicy (through
// ShardedStore's PolicyFactory) and SegmentBackend (through its
// BackendFactory) time every call, while the client loop times its own
// calls into ShardedStore. Nothing under src/ knows it is being traced.
//
// Nesting. A client thread publishes the call it is inside (ClientCall)
// in a thread-local; a decorator invoked on that thread adds its time to
// the call's nested sums, so a Write's self time is its duration minus
// the policy and backend time inside it. Decorator calls on the seal
// pipeline's I/O threads find no client call and count only toward
// their layer's busy time.
//
// Spans. Every SelectVictims, every mutating backend call, and the client
// call enclosing either are kept in a preallocated buffer, plus one in
// kSampleEvery of the remaining client calls (with their nested backend
// reads); the buffer drops spans once full. WriteChromeTrace() emits the
// spans as Chrome trace-event JSON (chrome://tracing, Perfetto).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/io_backend.h"

namespace lssbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Layer : uint8_t {
  // Client calls into ShardedStore, timed by the client loop.
  kWrite,
  kRead,
  kCheckpoint,
  kOpen,
  // CleaningPolicy, timed by TracingPolicy.
  kSelectVictims,
  kPlacement,
  // SegmentBackend, timed by TracingBackend.
  kSeal,
  kBackendCheckpoint,
  kBackendCheckpointDelta,
  kRehome,
  kReclaim,
  kBackendDelete,
  kSync,
  kBackendRead,
  kCount,
};

constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

/// Metric-name prefix of a layer ("store.write", "backend.sync", ...).
const char* LayerName(Layer layer);

/// One client call into ShardedStore, as seen by the decorators running
/// inside it on the same thread.
struct ClientCall {
  uint64_t policy_ns = 0;
  uint64_t backend_ns = 0;
  uint32_t id = 0;        // span id, assigned when a child span needs it
  bool cleaned = false;   // a SelectVictims ran inside this call
};

/// Set by the client loop around each traced call; null elsewhere.
extern thread_local ClientCall* tls_call;

struct LayerCounters {
  uint64_t calls[kLayers] = {};
  uint64_t ns[kLayers] = {};
  uint64_t victims = 0;  // segments returned by SelectVictims
};

class Tracer {
 public:
  /// One client call in kSampleEvery gets a span without a child needing
  /// it; placement (per page, the hottest policy call) is timed one call
  /// in kPlacementSampleEvery and scaled, while its calls are counted
  /// exactly.
  static constexpr uint64_t kSampleEvery = 1024;
  static constexpr uint64_t kPlacementSampleEvery = 64;

  explicit Tracer(size_t span_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Decorators and spans record only while armed: the measured phase,
  /// not the set-up that builds the store.
  void Arm(bool on) { armed_.store(on, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The calling thread's counter block (allocated on first use). Each
  /// block is written only by its thread; Totals() may read it once
  /// every writer has been joined.
  LayerCounters& Local();

  /// Sum of every thread's block. Call only after the stores (and so
  /// their I/O threads) and client threads are gone.
  LayerCounters Totals() const;

  uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Ensures the current client call has a span id and returns it (0
  /// when the calling thread is not inside a client call).
  uint32_t ParentId();

  void Record(Layer layer, uint64_t start_ns, uint64_t end_ns, uint32_t id,
              uint32_t parent);

  size_t spans() const;
  uint64_t dropped() const;

  /// Writes the spans as Chrome trace-event JSON; false with `*error`
  /// set on I/O failure.
  bool WriteChromeTrace(const std::string& path, std::string* error) const;

 private:
  struct Span {
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t id;
    uint32_t parent;
    uint16_t thread;
    Layer layer;
  };
  struct Block {
    LayerCounters counters;
    uint16_t thread = 0;
  };
  Block& LocalBlock();

  const uint64_t generation_;
  const uint64_t origin_ns_;
  std::atomic<bool> armed_{false};
  std::atomic<uint32_t> next_id_{1};
  std::vector<Span> spans_;
  std::atomic<size_t> next_span_{0};
  mutable std::mutex blocks_mu_;
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// Times SelectVictims (every call, with a span) and PlacementLog
/// (sampled) around the wrapped policy. Decisions are the inner policy's,
/// unchanged.
class TracingPolicy : public lss::CleaningPolicy {
 public:
  TracingPolicy(std::unique_ptr<lss::CleaningPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void SelectVictims(const lss::StoreShard& shard, uint32_t triggering_log,
                     size_t max_victims,
                     std::vector<lss::SegmentId>* out) const override;
  uint32_t PlacementLog(const lss::StoreShard& shard, lss::PageId page,
                        bool is_gc, double upf_estimate) override;
  size_t PreferredBatch(size_t config_batch) const override {
    return inner_->PreferredBatch(config_batch);
  }

 private:
  std::unique_ptr<lss::CleaningPolicy> inner_;
  Tracer* tracer_;
  uint64_t placements_ = 0;  // only touched under the owning shard's lock
};

/// Times every call into the wrapped backend.
class TracingBackend : public lss::SegmentBackend {
 public:
  TracingBackend(std::unique_ptr<lss::SegmentBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  lss::Status Open(const lss::StoreConfig& config, uint32_t shard_id,
                   uint32_t num_shards, lss::StoreStats* stats,
                   bool recover) override {
    return inner_->Open(config, shard_id, num_shards, stats, recover);
  }
  lss::Status SealSegment(const lss::BackendSegmentRecord& record) override {
    return Timed(Layer::kSeal, [&] { return inner_->SealSegment(record); });
  }
  lss::Status Checkpoint(const lss::BackendSegmentRecord& record) override {
    return Timed(Layer::kBackendCheckpoint,
                 [&] { return inner_->Checkpoint(record); });
  }
  lss::Status CheckpointDelta(
      const lss::BackendSegmentRecord& record) override {
    return Timed(Layer::kBackendCheckpointDelta,
                 [&] { return inner_->CheckpointDelta(record); });
  }
  lss::Status RehomeEntries(const lss::BackendSegmentRecord& record) override {
    return Timed(Layer::kRehome, [&] { return inner_->RehomeEntries(record); });
  }
  lss::Status Sync() override {
    return Timed(Layer::kSync, [&] { return inner_->Sync(); });
  }
  void SetDeferredSync(bool on) override { inner_->SetDeferredSync(on); }
  void Abandon() override { inner_->Abandon(); }
  lss::Status ReclaimSegment(lss::SegmentId id,
                             lss::UpdateCount unow) override {
    return Timed(Layer::kReclaim,
                 [&] { return inner_->ReclaimSegment(id, unow); });
  }
  lss::Status RecordDelete(lss::PageId page, uint64_t seq,
                           lss::UpdateCount unow) override {
    return Timed(Layer::kBackendDelete,
                 [&] { return inner_->RecordDelete(page, seq, unow); });
  }
  lss::Status ReadPagePayload(lss::SegmentId id, uint64_t offset,
                              lss::PageId page, uint32_t bytes,
                              std::vector<uint8_t>* out) override {
    return Timed(Layer::kBackendRead, [&] {
      return inner_->ReadPagePayload(id, offset, page, bytes, out);
    });
  }
  lss::Status Scan(lss::BackendRecovery* out) override {
    return inner_->Scan(out);
  }
  lss::Status Close() override { return inner_->Close(); }
  std::string name() const override { return inner_->name(); }

 private:
  template <typename Fn>
  lss::Status Timed(Layer layer, Fn fn) {
    if (!tracer_->armed()) return fn();
    const uint64_t start = NowNs();
    lss::Status s = fn();
    const uint64_t end = NowNs();
    LayerCounters& c = tracer_->Local();
    ++c.calls[static_cast<size_t>(layer)];
    c.ns[static_cast<size_t>(layer)] += end - start;
    uint32_t parent = 0;
    if (tls_call != nullptr) {
      tls_call->backend_ns += end - start;
      // Reads are kept only inside a sampled call (they would otherwise
      // fill the span buffer within seconds); the caller decides.
      if (layer == Layer::kBackendRead && tls_call->id == 0) return s;
      parent = tracer_->ParentId();
    }
    tracer_->Record(layer, start, end, tracer_->NewId(), parent);
    return s;
  }

  std::unique_ptr<lss::SegmentBackend> inner_;
  Tracer* tracer_;
};

}  // namespace lssbench

#endif  // LSSBENCH_TRACING_H_
