#ifndef LSS_CORE_SHARDED_STORE_H_
#define LSS_CORE_SHARDED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cleaning_policy.h"
#include "core/config.h"
#include "core/io_backend.h"
#include "core/page_table.h"
#include "core/stats.h"
#include "core/store_shard.h"
#include "core/types.h"

namespace lss {

/// Builds one CleaningPolicy instance; called once per shard so policy
/// state is never shared between threads (MakePolicy(variant) wrapped in
/// a lambda is the usual factory).
using PolicyFactory = std::function<std::unique_ptr<CleaningPolicy>()>;

/// Builds one SegmentBackend instance for the given shard id. Optional:
/// the default builds whatever `config.backend` selects. Tests inject
/// FaultInjectionBackend through this.
using BackendFactory =
    std::function<std::unique_ptr<SegmentBackend>(uint32_t shard_id)>;

/// A concurrent log-structured store: N independent StoreShards behind a
/// hash router, scaling the paper's single-threaded simulator (§6.1.1)
/// across cores.
///
/// Partitioning. Pages route to shards by PageShard (a splitmix64 hash of
/// the page id), and the device is split evenly: each shard owns
/// num_segments / num_shards segments, its own free pool, write buffer,
/// update clock, stats and cleaning-policy instance. Cleaning is per
/// shard — a shard's cleaner only ever selects victims among its own
/// segments, so shards never contend on a victim or a free list.
///
/// Locking. One mutex per shard serialises all operations routed to it;
/// cross-shard state is limited to the shared lock-free PageTable (which
/// publishes its chunks by CAS; each page's fields are owned by its
/// shard's mutex) and read-side aggregation.
/// With num_shards comfortably above the thread count, writers mostly
/// land on distinct shards and proceed in parallel.
///
/// Stats are aggregated on read: AggregatedStats() locks each shard in
/// turn and merges its counters, so WriteAmplification() over the result
/// is the global Wamp while shard(i).stats() exposes the per-shard view
/// (bench/scale_threads.cc reports the spread).
///
/// A 1-shard ShardedStore is the paper's single-threaded simulator: its
/// one StoreShard owns the whole device. Reach shard internals (stats,
/// segments, unow, EstimateUpf) through shard(0).
///
/// Typical use:
///   auto store = ShardedStore::Create(
///       cfg, 1, [] { return MakePolicy(Variant::kMdc); });
///   for (...) store->Write(page_id);
///   double wamp = store->AggregatedStats().WriteAmplification();
class ShardedStore {
 public:
  /// Creates a store with `num_shards` shards, giving each shard
  /// num_segments / num_shards segments, its own policy from
  /// `policy_factory` and its own persistence backend (from
  /// `backend_factory`, or `config.backend` when none is given — the
  /// file backend then writes one file pair per shard under
  /// `config.backend_dir`). Fails (nullptr, `*status` set) when the
  /// per-shard geometry does not validate — the device must be large
  /// enough that every shard still has a workable segment pool.
  static std::unique_ptr<ShardedStore> Create(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory, Status* status = nullptr,
      const BackendFactory& backend_factory = nullptr);

  /// Reopens a sharded store from the durable state a previous run left
  /// in `config.backend_dir` (file backend only). `num_shards` and the
  /// geometry must match the creating run: each shard recovers from its
  /// own file pair, and a shard-count mismatch is detected when a
  /// recovered segment holds pages the shard does not own.
  static std::unique_ptr<ShardedStore> Open(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory, Status* status = nullptr);

  /// Closes every shard (flush, seal, backend close); first error wins.
  /// Also runs at destruction, where the result is ignored.
  Status Close();

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  /// Installs the exact-frequency oracle on every shard. Must be set
  /// before the first Write; the oracle is called concurrently from all
  /// shard threads and must be thread-safe (pure functions of the page id
  /// are — all workload generators qualify).
  void SetExactFrequencyOracle(const ExactFrequencyFn& oracle);

  /// Routes to the owning shard and writes under its lock.
  Status Write(PageId page, uint32_t bytes = 0);

  /// Routes to the owning shard and deletes under its lock.
  Status Delete(PageId page);

  /// Drains every shard's write buffer.
  Status Flush();

  /// Durable barrier across all shards: flushes buffers, checkpoints
  /// open segments and drains every shard's seal pipeline. On return
  /// every previously acknowledged write survives a crash. First error
  /// wins, but every shard is attempted.
  Status Checkpoint();

  /// Routes to the owning shard and reads the page's payload under its
  /// lock (see StoreShard::ReadPage; in async-seal mode this waits for
  /// the covering seal to reach the device).
  Status ReadPage(PageId page, std::vector<uint8_t>* out) const;

  /// True if `page` currently has a live version (buffered or stored).
  bool Contains(PageId page) const;

  /// Size in bytes of the current version of `page` (0 if absent).
  uint32_t PageSize(PageId page) const;

  // --- Introspection --------------------------------------------------

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The shard `page` routes to.
  uint32_t ShardOf(PageId page) const {
    return PageShard(page, num_shards());
  }

  /// Direct shard access. Not synchronised: use only while no other
  /// thread is operating on the store (tests and post-run inspection), or
  /// take the corresponding shard lock via WithShardLocked.
  StoreShard& shard(uint32_t i) { return *shards_[i]->shard; }
  const StoreShard& shard(uint32_t i) const { return *shards_[i]->shard; }

  /// Runs `fn(shard)` under shard `i`'s lock.
  template <typename Fn>
  auto WithShardLocked(uint32_t i, Fn fn) const {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    return fn(*shards_[i]->shard);
  }

  /// The geometry each shard runs with (num_segments already divided).
  const StoreConfig& shard_config() const { return shard_config_; }

  const PageTable& page_table() const { return table_; }

  /// Counters merged across shards (locks each shard briefly).
  StoreStats AggregatedStats() const;

  /// Zeroes every shard's counters (paper §6.2 warm-up protocol).
  void ResetMeasurement();

  /// Measured write amplification of each shard, indexed by shard id.
  std::vector<double> PerShardWriteAmplification() const;

  /// Aggregate live bytes / aggregate device bytes.
  double CurrentFillFactor() const;

  /// Live (present) pages across all shards. O(num_shards * P), each
  /// shard counted under its lock so the call is safe concurrently with
  /// writers (each shard's pages only mutate under that same lock).
  size_t LivePageCount() const;

  /// Runs StoreShard::CheckInvariants on every shard under its lock;
  /// returns the first inconsistency found.
  Status CheckInvariants() const;

 private:
  // Each shard gets its own cache line so neighbouring mutexes do not
  // false-share under contention.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unique_ptr<StoreShard> shard;
  };

  ShardedStore() = default;

  // Shared construction for Create (fresh device) and Open (recovery).
  static std::unique_ptr<ShardedStore> Build(
      const StoreConfig& config, uint32_t num_shards,
      const PolicyFactory& policy_factory,
      const BackendFactory& backend_factory, bool recover, Status* status);

  PageTable table_;
  StoreConfig shard_config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lss

#endif  // LSS_CORE_SHARDED_STORE_H_
