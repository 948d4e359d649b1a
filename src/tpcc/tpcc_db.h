#ifndef LSS_TPCC_TPCC_DB_H_
#define LSS_TPCC_TPCC_DB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/buffer_pool.h"
#include "btree/pager.h"
#include "core/types.h"
#include "tpcc/schema.h"
#include "tpcc/tpcc_random.h"
#include "workload/trace.h"

namespace lss::tpcc {

/// Cardinalities and engine knobs. Defaults are the TPC-C standard's
/// per-warehouse numbers; tests and benches scale them down — what the
/// cleaning experiment needs is the *pattern* of page writes, which is
/// governed by the schema, the transaction mix, and the cache-to-database
/// ratio, not by absolute size.
struct TpccConfig {
  uint32_t warehouses = 1;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 3000;
  uint32_t items = 100000;
  /// Initial orders per district (one per customer, permuted), the first
  /// ~70% already delivered.
  uint32_t orders_per_district = 3000;
  /// Buffer cache size in 4 KB pages (the paper's "4 GB buffer cache"
  /// scaled to the database; ~10% of the DB is a comparable ratio).
  size_t buffer_pool_pages = 4096;
  uint64_t seed = 7;
  /// Worker-session count. The warehouse-keyed tables are split into
  /// min(workers, warehouses) partition groups (warehouse w belongs to
  /// group (w-1) % groups) so traces stay comparable across layouts, but
  /// the B+-tree is latch-coupled and every tree supports concurrent
  /// access — workers may exceed warehouses, in which case several
  /// workers share a group (worker t drives group t % groups). 1 keeps
  /// the layout and behaviour of the single-threaded engine.
  uint32_t workers = 1;

  /// Partition-group count a TpccDb built from this config will use —
  /// the one formula every layer (engine, trace generator) must share.
  uint32_t PartitionGroups() const {
    const uint32_t w = warehouses < 1 ? 1 : warehouses;
    return workers < 1 ? 1 : (workers < w ? workers : w);
  }
};

/// A TPC-C database and transaction engine over the B+-tree storage
/// engine. All five standard transactions are implemented against eleven
/// trees (nine tables + two secondary indexes). Page-write I/O (buffer
/// pool write-backs) is recorded through an optional observer — usually
/// into a Trace — regenerating the kind of trace the paper replays
/// through the cleaning simulator (§6.3).
///
/// Concurrency. The trees are latch-coupled B+-trees, safe for any mix
/// of concurrent readers and writers, so workers may outnumber
/// warehouses: there is no partition-group mutex. What remains above the
/// tree layer is row-level mutual exclusion for multi-step
/// read-modify-writes, provided by short fine-grained locks:
///   - one mutex per warehouse (Payment's W_YTD RMW),
///   - one mutex per district (NewOrder's o_id allocation, Payment's
///     D_YTD RMW, Delivery's atomic dequeue of the oldest NEW_ORDER),
///   - a striped row-lock table for stock and customer row RMWs
///     (NewOrder stock updates, Payment/Delivery customer updates).
/// A transaction holds at most one of these locks at a time (each
/// guards one self-contained RMW and is released before the next is
/// taken), so the scheme cannot deadlock regardless of remote
/// warehouses. Pure reads (OrderStatus, StockLevel, selection scans)
/// take no locks at all: the tree latches make each individual
/// operation atomic, and inserts keyed by a freshly allocated o_id or
/// history sequence number need no lock because the key is unique to
/// the allocating transaction. Every TPC-C consistency condition is a
/// sum/ownership invariant restored at transaction commit, so it holds
/// at any quiescent point. Worker threads drive transactions through
/// Session objects (their own RNG stream + home-warehouse set).
///
/// Simplifications (documented): logical timestamps, no WAL (the trace
/// captures data-page writes only, as the paper's did), and the 1%
/// intentionally-aborted New-Order transactions perform their reads but
/// skip their writes (there is no rollback machinery).
class TpccDb {
 public:
  enum class TxnType : int {
    kNewOrder = 0,
    kPayment = 1,
    kOrderStatus = 2,
    kDelivery = 3,
    kStockLevel = 4,
  };

  /// Per-worker transaction context: an RNG stream and the worker's home
  /// partition. Create via MakeSession; drive via the Session-taking
  /// transaction methods, one thread per session at a time.
  class Session {
   public:
    uint32_t worker() const { return worker_; }

   private:
    friend class TpccDb;
    Session(uint64_t seed, uint32_t worker) : rnd_(seed), worker_(worker) {}
    TpccRandom rnd_;
    uint32_t worker_ = 0;
  };

  /// `trace` may be null; when set, every data-page write-back is
  /// appended to it. This form is single-threaded: a Trace is not
  /// thread-safe, so use it only with workers == 1 (or drive the db from
  /// one thread).
  explicit TpccDb(const TpccConfig& config, Trace* trace = nullptr);

  /// Observer form for concurrent runs: `observer` sees every data-page
  /// write-back and must be thread-safe when transactions run from
  /// multiple threads (e.g. append to a thread-local trace buffer).
  TpccDb(const TpccConfig& config, BufferPool::WriteObserver observer);

  TpccDb(const TpccDb&) = delete;
  TpccDb& operator=(const TpccDb&) = delete;

  /// Loads the initial database per the standard's population rules.
  /// Equivalent to PopulateItems() + PopulateWorker(0..groups-1); runs
  /// the group loop on internal threads when partition_groups() > 1
  /// *and* no single-Trace observer needs attribution (callers wanting
  /// per-thread trace buffers drive PopulateWorker from their own
  /// threads instead).
  void Populate();

  /// Population, split for caller-owned threading: items first (shared
  /// table, call once), then one call per partition group in
  /// [0, partition_groups()) (safe to run all groups concurrently —
  /// each touches only its own group's warehouses).
  void PopulateItems();
  void PopulateWorker(uint32_t group);

  /// Number of worker sessions the database is laid out for
  /// (config.workers; may exceed warehouses — several sessions then
  /// share a partition group).
  uint32_t workers() const {
    return config_.workers < 1 ? 1 : config_.workers;
  }

  /// Number of partition groups (min(config.workers, warehouses)).
  uint32_t partition_groups() const {
    return static_cast<uint32_t>(parts_.size());
  }

  /// A session for `worker` in [0, workers()). Worker 0 with the default
  /// seed reproduces the single-threaded engine's home-warehouse draws.
  Session MakeSession(uint32_t worker) const;

  /// Runs one transaction drawn from the standard mix
  /// (45/43/4/4/4 New-Order/Payment/Order-Status/Delivery/Stock-Level)
  /// on `session`'s home partition.
  TxnType RunNextTransaction(Session& session);

  // Individual transactions (public so tests can drive them directly).
  // Each returns true if it committed (New-Order aborts ~1% by spec).
  bool NewOrder(Session& session);
  bool Payment(Session& session);
  bool OrderStatus(Session& session);
  bool Delivery(Session& session);
  bool StockLevel(Session& session);

  // Single-threaded conveniences driving a built-in session 0 (the
  // pre-refactor API; tests use these).
  TxnType RunNextTransaction() { return RunNextTransaction(session0_); }
  bool NewOrder() { return NewOrder(session0_); }
  bool Payment() { return Payment(session0_); }
  bool OrderStatus() { return OrderStatus(session0_); }
  bool Delivery() { return Delivery(session0_); }
  bool StockLevel() { return StockLevel(session0_); }

  /// Writes back all dirty cached pages (a fuzzy checkpoint); the trace
  /// sees them as page writes. Safe to call concurrently with running
  /// transactions: pinned frames are skipped and flushed later.
  void Checkpoint() { pool_.FlushAll(); }

  /// Database footprint in pages (grows as the benchmark runs).
  uint64_t PageCount() const { return pager_.PageCount(); }

  /// Transactions executed, by type (all sessions).
  uint64_t TxnCount(TxnType t) const {
    return txn_counts_[static_cast<int>(t)].load(std::memory_order_relaxed);
  }

  const TpccConfig& config() const { return config_; }
  const BufferPool& pool() const { return pool_; }

  /// TPC-C consistency conditions (clause 3.3.2 subset):
  ///   1. W_YTD = sum of its districts' D_YTD.
  ///   2. Per district, D_NEXT_O_ID - 1 = max(O_ID).
  ///   3. Every order has exactly O_OL_CNT order lines.
  ///   4. Every NEW_ORDER row references an existing undelivered order.
  /// Plus structural integrity of every tree. Call only while no
  /// transactions are running.
  Status CheckConsistency();

 private:
  // One worker group's share of the warehouse-keyed tables. The trees
  // themselves are safe for concurrent access; grouping exists so trace
  // layouts stay comparable across worker counts.
  struct Partition {
    std::unique_ptr<BTree> warehouse;
    std::unique_ptr<BTree> district;
    std::unique_ptr<BTree> customer;
    std::unique_ptr<BTree> history;
    std::unique_ptr<BTree> new_order;
    std::unique_ptr<BTree> order;
    std::unique_ptr<BTree> order_line;
    std::unique_ptr<BTree> stock;
    // Secondary indexes.
    std::unique_ptr<BTree> customer_name_idx;
    std::unique_ptr<BTree> order_customer_idx;
  };

  // Fine-grained lock state for one warehouse (see the class comment's
  // concurrency section). Cache-line aligned so neighbouring warehouses'
  // locks do not false-share.
  struct alignas(64) WarehouseState {
    std::mutex mu;  // W_YTD read-modify-write (Payment)
    std::atomic<uint64_t> history_seq{0};
    std::unique_ptr<std::mutex[]> district_mu;  // [districts_per_warehouse]
  };

  void InitPartitions();

  // The partition group warehouse `w` (1-based) belongs to.
  Partition& Part(uint32_t w) {
    return *parts_[(w - 1) % parts_.size()];
  }

  WarehouseState& WState(uint32_t w) { return *wstate_[w - 1]; }
  std::mutex& DistrictMutex(uint32_t w, uint32_t d) {
    return WState(w).district_mu[d - 1];
  }
  // Striped row locks for stock/customer RMWs; `h` is a row-identity
  // hash (table tag + key columns). Aliasing across stripes only adds
  // serialisation, never affects correctness.
  std::mutex& RowLockFor(uint64_t h) {
    return row_locks_[h % kRowLockStripes];
  }

  // Worker `worker`'s home-warehouse count and i-th (1-based) warehouse;
  // workers beyond the group count share their group's warehouses.
  uint32_t HomeWarehouseCount(uint32_t worker) const {
    const uint32_t groups = static_cast<uint32_t>(parts_.size());
    return (config_.warehouses - 1 - worker % groups) / groups + 1;
  }
  uint32_t HomeWarehouse(Session& s);

  // Populates one warehouse's rows (all tables but ITEM) with its own
  // deterministic RNG stream, so population parallelises per warehouse.
  void PopulateWarehouse(uint32_t w);

  // Order-Status / Payment customer selection: 60% by last name (middle
  // matching row), 40% by NURand id. Returns false if no such customer.
  // Lock-free: the name index is read-only after Populate and the row
  // fetch is a single tree read; RMW callers re-read the chosen row
  // under its row lock.
  bool PickCustomer(Session& s, uint32_t w, uint32_t d, CustomerRow* row);

  int64_t Now() {
    return static_cast<int64_t>(
        clock_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  TpccConfig config_;
  TpccRandom rnd_;  // population (items); not used by transactions
  Pager pager_;
  BufferPool pool_;

  std::vector<std::unique_ptr<Partition>> parts_;
  std::unique_ptr<BTree> item_;  // shared; read-only after Populate

  static constexpr size_t kRowLockStripes = 1024;
  std::vector<std::unique_ptr<WarehouseState>> wstate_;  // [warehouses]
  std::unique_ptr<std::mutex[]> row_locks_;

  Session session0_;
  /// True when constructed over a single (not thread-safe) Trace;
  /// Populate then stays on the calling thread.
  bool single_threaded_observer_ = false;
  std::atomic<uint64_t> clock_{0};
  std::atomic<uint64_t> txn_counts_[5] = {};
};

}  // namespace lss::tpcc

#endif  // LSS_TPCC_TPCC_DB_H_
