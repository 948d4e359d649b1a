#include "core/sharded_store.h"

#include <algorithm>

namespace lss {

std::unique_ptr<ShardedStore> ShardedStore::Create(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory, Status* status,
    const BackendFactory& backend_factory) {
  return Build(config, num_shards, policy_factory, backend_factory,
               /*recover=*/false, status);
}

std::unique_ptr<ShardedStore> ShardedStore::Open(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory, Status* status) {
  Status s = ValidateReopenConfig(config);
  if (!s.ok()) {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  }
  return Build(config, num_shards, policy_factory, nullptr,
               /*recover=*/true, status);
}

Status ShardedStore::Close() {
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard shard(*s);
    Status st = shard->Close();
    if (!shard.error().ok()) st = shard.error();
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

std::unique_ptr<ShardedStore> ShardedStore::Build(
    const StoreConfig& config, uint32_t num_shards,
    const PolicyFactory& policy_factory,
    const BackendFactory& backend_factory, bool recover, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedStore> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  if (num_shards < 1 || num_shards > 1024) {
    return fail(Status::InvalidArgument("num_shards must be in [1, 1024]"));
  }
  if (!policy_factory) {
    return fail(Status::InvalidArgument("policy factory must not be null"));
  }
  Status s = config.Validate();
  if (!s.ok()) return fail(std::move(s));

  // Split the device evenly; any remainder segments are dropped rather
  // than creating unequal shards (at most num_shards - 1 segments, noise
  // at any realistic device size).
  StoreConfig shard_cfg = config;
  shard_cfg.num_segments = config.num_segments / num_shards;
  s = shard_cfg.Validate();
  if (!s.ok()) {
    return fail(Status::InvalidArgument(
        "per-shard geometry invalid (device too small for " +
        std::to_string(num_shards) + " shards): " + s.message()));
  }

  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->shard_config_ = shard_cfg;
  const size_t ring_capacity =
      static_cast<size_t>(shard_cfg.PagesPerSegment()) *
      std::max<uint32_t>(1, shard_cfg.write_buffer_segments);
  store->shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto policy = policy_factory();
    if (policy == nullptr) {
      return fail(Status::InvalidArgument("policy factory returned null"));
    }
    std::unique_ptr<SegmentBackend> backend =
        backend_factory ? backend_factory(i) : MakeBackend(shard_cfg);
    auto slot = std::make_unique<Shard>(ring_capacity);
    slot->shard = std::make_unique<StoreShard>(shard_cfg, std::move(policy),
                                               &store->table_, i, num_shards,
                                               std::move(backend));
    s = slot->shard->OpenBackend(recover);
    if (s.ok() && recover) s = slot->shard->Recover();
    if (!s.ok()) {
      return fail(Status(s.code(), "shard " + std::to_string(i) + ": " +
                                       s.message()));
    }
    store->shards_.push_back(std::move(slot));
  }
  if (status != nullptr) *status = Status::OK();
  return store;
}

void ShardedStore::SetExactFrequencyOracle(const ExactFrequencyFn& oracle) {
  for (auto& s : shards_) {
    LockedShard shard(*s);
    shard->SetExactFrequencyOracle(oracle);
  }
}

Status ShardedStore::Write(PageId page, uint32_t bytes) {
  Shard& s = *shards_[ShardOf(page)];
  if (!s.lock.TryLock()) {
    Status st = s.shard->CheckWriteArgs(page, bytes);
    if (!st.ok()) return st;
    if (s.failed.load(std::memory_order_acquire)) return s.error;
    if (s.lock.TryQueue({page, bytes})) return Status::OK();
    // The ring is full, or the holder let go meanwhile: take the lock.
    s.lock.Lock();
  }
  LockedShard shard(s, std::adopt_lock);
  if (!shard.error().ok()) return shard.error();
  return shard->Write(page, bytes);
}

Status ShardedStore::Delete(PageId page) {
  LockedShard shard(*shards_[ShardOf(page)]);
  if (!shard.error().ok()) return shard.error();
  return shard->Delete(page);
}

Status ShardedStore::Flush() {
  // Attempt every shard even after a failure so healthy shards still
  // drain their buffers; report the first error.
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard shard(*s);
    Status st = shard.error().ok() ? shard->Flush() : shard.error();
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

Status ShardedStore::Checkpoint() {
  Status result = Status::OK();
  for (auto& s : shards_) {
    LockedShard shard(*s);
    Status st = shard.error().ok() ? shard->Checkpoint() : shard.error();
    if (!st.ok() && result.ok()) result = std::move(st);
  }
  return result;
}

Status ShardedStore::ReadPage(PageId page, std::vector<uint8_t>* out) const {
  LockedShard shard(*shards_[ShardOf(page)]);
  if (!shard.error().ok()) return shard.error();
  return shard->ReadPage(page, out);
}

bool ShardedStore::Contains(PageId page) const {
  LockedShard shard(*shards_[ShardOf(page)]);
  return shard->Contains(page);
}

uint32_t ShardedStore::PageSize(PageId page) const {
  LockedShard shard(*shards_[ShardOf(page)]);
  return shard->PageSize(page);
}

StoreStats ShardedStore::AggregatedStats() const {
  StoreStats total;
  for (const auto& s : shards_) {
    LockedShard shard(*s);
    total.Merge(shard->stats());
  }
  return total;
}

void ShardedStore::ResetMeasurement() {
  for (auto& s : shards_) {
    LockedShard shard(*s);
    shard->ResetMeasurement();
  }
}

std::vector<double> ShardedStore::PerShardWriteAmplification() const {
  std::vector<double> wamp;
  wamp.reserve(shards_.size());
  for (const auto& s : shards_) {
    LockedShard shard(*s);
    wamp.push_back(shard->stats().WriteAmplification());
  }
  return wamp;
}

double ShardedStore::CurrentFillFactor() const {
  double fill_sum = 0.0;
  for (const auto& s : shards_) {
    LockedShard shard(*s);
    fill_sum += shard->CurrentFillFactor();
  }
  // Shards have identical device sizes, so the aggregate fill is the mean.
  return shards_.empty() ? 0.0 : fill_sum / static_cast<double>(shards_.size());
}

size_t ShardedStore::LivePageCount() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    LockedShard shard(*s);
    n += shard->LivePageCount();
  }
  return n;
}

Status ShardedStore::CheckInvariants() const {
  for (const auto& s : shards_) {
    LockedShard shard(*s);
    Status st = shard->CheckInvariants();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace lss
