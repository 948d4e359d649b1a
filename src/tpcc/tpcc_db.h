#ifndef LSS_TPCC_TPCC_DB_H_
#define LSS_TPCC_TPCC_DB_H_

#include <cstdint>
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
};

/// A TPC-C database and transaction engine over the B+-tree storage
/// engine. All five standard transactions are implemented against eleven
/// trees (nine tables + two secondary indexes). Page-write I/O (buffer
/// pool write-backs) is recorded into an optional Trace, regenerating the
/// kind of trace the paper replays through the cleaning simulator
/// (§6.3).
///
/// Single-threaded: transactions run one at a time, each to completion,
/// so there are no locks (docs/ARCHITECTURE.md, "One-writer TPC-C
/// engine").
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

  /// `trace` may be null; when set, every data-page write-back is
  /// appended to it.
  explicit TpccDb(const TpccConfig& config, Trace* trace = nullptr);

  TpccDb(const TpccDb&) = delete;
  TpccDb& operator=(const TpccDb&) = delete;

  /// Loads the initial database per the standard's population rules:
  /// the item table, then each warehouse in turn.
  void Populate();

  /// Runs one transaction drawn from the standard mix
  /// (45/43/4/4/4 New-Order/Payment/Order-Status/Delivery/Stock-Level).
  TxnType RunNextTransaction();

  // Individual transactions (public so tests can drive them directly).
  // Each returns true if it committed (New-Order aborts ~1% by spec).
  bool NewOrder();
  bool Payment();
  bool OrderStatus();
  bool Delivery();
  bool StockLevel();

  /// Writes back all dirty cached pages (a fuzzy checkpoint); the trace
  /// sees them as page writes.
  void Checkpoint() { pool_.FlushAll(); }

  /// Database footprint in pages (grows as the benchmark runs).
  uint64_t PageCount() const { return pager_.PageCount(); }

  /// Transactions executed, by type.
  uint64_t TxnCount(TxnType t) const {
    return txn_counts_[static_cast<int>(t)];
  }

  const TpccConfig& config() const { return config_; }
  const BufferPool& pool() const { return pool_; }

  /// TPC-C consistency conditions (clause 3.3.2 subset):
  ///   1. W_YTD = sum of its districts' D_YTD.
  ///   2. Per district, D_NEXT_O_ID - 1 = max(O_ID).
  ///   3. Every order has exactly O_OL_CNT order lines.
  ///   4. Every NEW_ORDER row references an existing undelivered order.
  /// Plus structural integrity of every tree.
  Status CheckConsistency();

 private:
  // The home warehouse of the next transaction (uniform over all).
  uint32_t HomeWarehouse();

  // Populates one warehouse's rows (all tables but ITEM) with its own
  // deterministic RNG stream.
  void PopulateWarehouse(uint32_t w);

  // Order-Status / Payment customer selection: 60% by last name (middle
  // matching row), 40% by NURand id. Returns false if no such customer.
  bool PickCustomer(uint32_t w, uint32_t d, CustomerRow* row);

  int64_t Now() { return static_cast<int64_t>(++clock_); }

  TpccConfig config_;
  TpccRandom rnd_;      // population (items); not used by transactions
  TpccRandom txn_rnd_;  // every transaction draw
  Pager pager_;
  BufferPool pool_;

  // The trees, declared (and so created, each allocating its root page)
  // in the order the committed traces were made with.
  BTree warehouse_;
  BTree district_;
  BTree customer_;
  BTree history_;
  BTree new_order_;
  BTree order_;
  BTree order_line_;
  BTree stock_;
  // Secondary indexes.
  BTree customer_name_idx_;
  BTree order_customer_idx_;
  BTree item_;  // read-only after Populate

  std::vector<uint64_t> history_seq_;  // [warehouses]
  uint64_t clock_ = 0;
  uint64_t txn_counts_[5] = {};
};

}  // namespace lss::tpcc

#endif  // LSS_TPCC_TPCC_DB_H_
