#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace lssbench {

thread_local ClientCall* tls_call = nullptr;

namespace {

// Distinguishes Tracer instances, so a thread's cached block pointer is
// never reused for a later tracer at the same address.
std::atomic<uint64_t> g_tracer_generation{1};

struct ThreadCache {
  uint64_t generation = 0;
  void* block = nullptr;
};
thread_local ThreadCache tls_cache;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kWrite: return "store.write";
    case Layer::kRead: return "store.read";
    case Layer::kCheckpoint: return "store.checkpoint";
    case Layer::kOpen: return "store.open";
    case Layer::kSelectVictims: return "policy.select_victims";
    case Layer::kPlacement: return "policy.placement";
    case Layer::kSeal: return "backend.seal";
    case Layer::kBackendCheckpoint: return "backend.checkpoint";
    case Layer::kBackendCheckpointDelta: return "backend.checkpoint_delta";
    case Layer::kRehome: return "backend.rehome";
    case Layer::kReclaim: return "backend.reclaim";
    case Layer::kBackendDelete: return "backend.delete";
    case Layer::kSync: return "backend.sync";
    case Layer::kBackendRead: return "backend.read";
    case Layer::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer(size_t span_capacity)
    : generation_(g_tracer_generation.fetch_add(1)),
      origin_ns_(NowNs()),
      spans_(span_capacity) {}

Tracer::Block& Tracer::LocalBlock() {
  if (tls_cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    blocks_.push_back(std::make_unique<Block>());
    blocks_.back()->thread = static_cast<uint16_t>(blocks_.size() - 1);
    tls_cache.generation = generation_;
    tls_cache.block = blocks_.back().get();
  }
  return *static_cast<Block*>(tls_cache.block);
}

LayerCounters& Tracer::Local() { return LocalBlock().counters; }

LayerCounters Tracer::Totals() const {
  LayerCounters total;
  std::lock_guard<std::mutex> lock(blocks_mu_);
  for (const auto& b : blocks_) {
    for (size_t i = 0; i < kLayers; ++i) {
      total.calls[i] += b->counters.calls[i];
      total.ns[i] += b->counters.ns[i];
    }
    total.victims += b->counters.victims;
  }
  return total;
}

uint32_t Tracer::ParentId() {
  if (tls_call == nullptr) return 0;
  if (tls_call->id == 0) tls_call->id = NewId();
  return tls_call->id;
}

void Tracer::Record(Layer layer, uint64_t start_ns, uint64_t end_ns,
                    uint32_t id, uint32_t parent) {
  const size_t i = next_span_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) return;
  spans_[i] = Span{start_ns, end_ns, id, parent, LocalBlock().thread, layer};
}

size_t Tracer::spans() const {
  return std::min(next_span_.load(std::memory_order_relaxed), spans_.size());
}

uint64_t Tracer::dropped() const {
  const size_t n = next_span_.load(std::memory_order_relaxed);
  return n > spans_.size() ? n - spans_.size() : 0;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const size_t n = spans();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        static_cast<double>(s.start_ns - origin_ns_) / 1000.0;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    const char* name = LayerName(s.layer);
    const char* dot = std::strchr(name, '.');
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%u}}\n",
                 i == 0 ? "" : ",", name, static_cast<int>(dot - name), name,
                 ts_us, dur_us, static_cast<unsigned>(s.thread), s.id,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

void TracingPolicy::SelectVictims(const lss::StoreShard& shard,
                                  uint32_t triggering_log, size_t max_victims,
                                  std::vector<lss::SegmentId>* out) const {
  if (!tracer_->armed()) {
    inner_->SelectVictims(shard, triggering_log, max_victims, out);
    return;
  }
  const size_t before = out->size();
  const uint64_t start = NowNs();
  inner_->SelectVictims(shard, triggering_log, max_victims, out);
  const uint64_t end = NowNs();
  LayerCounters& c = tracer_->Local();
  ++c.calls[static_cast<size_t>(Layer::kSelectVictims)];
  c.ns[static_cast<size_t>(Layer::kSelectVictims)] += end - start;
  c.victims += out->size() - before;
  if (tls_call != nullptr) {
    tls_call->policy_ns += end - start;
    tls_call->cleaned = true;
  }
  tracer_->Record(Layer::kSelectVictims, start, end, tracer_->NewId(),
                  tracer_->ParentId());
}

uint32_t TracingPolicy::PlacementLog(const lss::StoreShard& shard,
                                     lss::PageId page, bool is_gc,
                                     double upf_estimate) {
  if (!tracer_->armed()) {
    return inner_->PlacementLog(shard, page, is_gc, upf_estimate);
  }
  LayerCounters& c = tracer_->Local();
  ++c.calls[static_cast<size_t>(Layer::kPlacement)];
  if (++placements_ % Tracer::kPlacementSampleEvery != 0) {
    return inner_->PlacementLog(shard, page, is_gc, upf_estimate);
  }
  const uint64_t start = NowNs();
  const uint32_t log = inner_->PlacementLog(shard, page, is_gc, upf_estimate);
  const uint64_t scaled = (NowNs() - start) * Tracer::kPlacementSampleEvery;
  c.ns[static_cast<size_t>(Layer::kPlacement)] += scaled;
  if (tls_call != nullptr) tls_call->policy_ns += scaled;
  return log;
}

}  // namespace lssbench
