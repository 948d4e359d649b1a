#include "tpcc/tpcc_db.h"

#include <gtest/gtest.h>

#include "tpcc/keys.h"
#include "tpcc/tpcc_random.h"
#include "tpcc/trace_gen.h"

namespace lss::tpcc {
namespace {

// Miniature cardinalities: same schema and mix, small enough that a full
// populate + thousands of transactions runs in well under a second.
TpccConfig MiniConfig() {
  TpccConfig c;
  c.warehouses = 2;
  c.districts_per_warehouse = 4;
  c.customers_per_district = 120;
  c.items = 500;
  c.orders_per_district = 120;
  c.buffer_pool_pages = 256;
  c.seed = 11;
  return c;
}

TEST(TpccRandomTest, NURandInRange) {
  TpccRandom r(1);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = r.NURand(1023, 1, 3000);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3000);
  }
}

TEST(TpccRandomTest, NURandIsNonUniform) {
  // NURand concentrates: some values must be drawn far more than the
  // uniform expectation.
  TpccRandom r(2);
  std::vector<int> counts(3001, 0);
  for (int i = 0; i < 300000; ++i) counts[r.NURand(1023, 1, 3000)]++;
  int max_count = 0;
  for (int c : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 2 * (300000 / 3000));
}

TEST(TpccRandomTest, LastNamesAreSyllabic) {
  EXPECT_EQ(TpccRandom::LastName(0), "BARBARBAR");
  EXPECT_EQ(TpccRandom::LastName(999), "EINGEINGEING");
  EXPECT_EQ(TpccRandom::LastName(371), "PRICALLYOUGHT");
}

TEST(TpccRandomTest, StringLengthBounds) {
  TpccRandom r(3);
  for (int i = 0; i < 100; ++i) {
    const std::string a = r.AString(5, 10);
    EXPECT_GE(a.size(), 5u);
    EXPECT_LE(a.size(), 10u);
    const std::string n = r.NString(4, 4);
    EXPECT_EQ(n.size(), 4u);
    for (char c : n) EXPECT_TRUE(c >= '0' && c <= '9');
  }
}

TEST(KeysTest, CompositeOrderMatchesTupleOrder) {
  EXPECT_LT(CustomerKey(1, 2, 3), CustomerKey(1, 2, 4));
  EXPECT_LT(CustomerKey(1, 2, 300), CustomerKey(1, 3, 1));
  EXPECT_LT(OrderLineKey(1, 1, 9, 15), OrderLineKey(1, 1, 10, 1));
  EXPECT_EQ(ReadU32(CustomerKey(7, 8, 9), 8), 9u);
}

TEST(KeysTest, OrderCustomerKeyNewestFirst) {
  // Larger order ids sort earlier within a customer's prefix.
  EXPECT_LT(OrderCustomerKey(1, 1, 5, 100), OrderCustomerKey(1, 1, 5, 99));
  EXPECT_LT(OrderCustomerKey(1, 1, 5, 1000), OrderCustomerKey(1, 1, 6, 9999));
}

TEST(KeysTest, NameKeyPrefixCoversAllIds) {
  const std::string p = CustomerNamePrefix(1, 2, "SMITH");
  EXPECT_TRUE(HasPrefix(CustomerNameKey(1, 2, "SMITH", 0), p));
  EXPECT_TRUE(HasPrefix(CustomerNameKey(1, 2, "SMITH", 4000000000u), p));
  EXPECT_FALSE(HasPrefix(CustomerNameKey(1, 2, "SMITT", 1), p));
}

TEST(SchemaTest, RowRoundTrip) {
  CustomerRow in{};
  in.c_id = 42;
  SetField(in.c_last, "BARBARBAR");
  in.c_balance = -12.5;
  CustomerRow out{};
  ASSERT_TRUE(RowFrom(RowView(in), &out));
  EXPECT_EQ(out.c_id, 42);
  EXPECT_EQ(GetField(out.c_last), "BARBARBAR");
  EXPECT_DOUBLE_EQ(out.c_balance, -12.5);
  EXPECT_FALSE(RowFrom(std::string_view("short"), &out));
}

TEST(SchemaTest, RowsFitEnginePayload) {
  EXPECT_LE(sizeof(CustomerRow), 1000u);
  EXPECT_LE(sizeof(StockRow), 1000u);
  EXPECT_LE(sizeof(OrderLineRow), 1000u);
}

struct TpccFixture : ::testing::Test {
  TpccFixture() : db(MiniConfig()) { db.Populate(); }
  TpccDb db;
};

TEST_F(TpccFixture, PopulateIsConsistent) {
  ASSERT_TRUE(db.CheckConsistency().ok());
  EXPECT_GT(db.PageCount(), 100u);
}

TEST_F(TpccFixture, NewOrderGrowsOrders) {
  int committed = 0;
  for (int i = 0; i < 50; ++i) committed += db.NewOrder() ? 1 : 0;
  EXPECT_GT(committed, 40);  // ~1% intentional aborts
  ASSERT_TRUE(db.CheckConsistency().ok());
}

TEST_F(TpccFixture, PaymentMaintainsYtdBalance) {
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(db.Payment());
  // CheckConsistency verifies w_ytd == sum(d_ytd) after payments.
  ASSERT_TRUE(db.CheckConsistency().ok());
}

TEST_F(TpccFixture, OrderStatusReadsOnly) {
  const uint64_t pages = db.PageCount();
  for (int i = 0; i < 50; ++i) db.OrderStatus();
  EXPECT_EQ(db.PageCount(), pages);  // read-only: no page allocations
  ASSERT_TRUE(db.CheckConsistency().ok());
}

TEST_F(TpccFixture, DeliveryDrainsNewOrders) {
  // Population leaves 30% of orders undelivered; deliveries must drain
  // them and stay consistent.
  int delivered = 0;
  for (int i = 0; i < 200; ++i) delivered += db.Delivery() ? 1 : 0;
  EXPECT_GT(delivered, 0);
  ASSERT_TRUE(db.CheckConsistency().ok());
}

TEST_F(TpccFixture, StockLevelRuns) {
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(db.StockLevel());
  ASSERT_TRUE(db.CheckConsistency().ok());
}

TEST_F(TpccFixture, MixedWorkloadStaysConsistent) {
  for (int i = 0; i < 2000; ++i) db.RunNextTransaction();
  ASSERT_TRUE(db.CheckConsistency().ok());
  // Mix sanity: New-Order ~45%, Payment ~43%.
  const double total = 2000.0;
  EXPECT_NEAR(db.TxnCount(TpccDb::TxnType::kNewOrder) / total, 0.45, 0.05);
  EXPECT_NEAR(db.TxnCount(TpccDb::TxnType::kPayment) / total, 0.43, 0.05);
  EXPECT_GT(db.TxnCount(TpccDb::TxnType::kDelivery), 0u);
}

TEST_F(TpccFixture, DatabaseGrowsOverTime) {
  const uint64_t before = db.PageCount();
  for (int i = 0; i < 2000; ++i) db.RunNextTransaction();
  EXPECT_GT(db.PageCount(), before);  // §6.3: TPC-C storage grows
}

TEST(TpccTraceTest, TraceCapturesLoadAndRun) {
  TpccConfig cfg = MiniConfig();
  const TpccTraceResult r = GenerateTpccTrace(cfg, 500, 1000);
  EXPECT_GT(r.trace.Size(), 0u);
  EXPECT_GT(r.measure_from, 0u);
  EXPECT_LT(r.measure_from, r.trace.Size());
  EXPECT_GE(r.pages_final, r.pages_after_load);
  // Every traced page must be within the final database footprint.
  EXPECT_LE(r.trace.MaxPageId(), r.pages_final);
  // The load prefix must cover the whole populated database (checkpoint
  // after populate), so replay starts from a fully-written store.
  std::vector<bool> seen(r.pages_after_load, false);
  size_t covered = 0;
  for (size_t i = 0; i < r.measure_from; ++i) {
    const TraceRecord& rec = r.trace.records()[i];
    if (rec.page < r.pages_after_load && !seen[rec.page]) {
      seen[rec.page] = true;
      ++covered;
    }
  }
  EXPECT_EQ(covered, r.pages_after_load);
}

TEST(TpccTraceTest, CheckpointsIncreaseWrites) {
  TpccConfig cfg = MiniConfig();
  const TpccTraceResult no_ckpt = GenerateTpccTrace(cfg, 200, 400, 0);
  const TpccTraceResult ckpt = GenerateTpccTrace(cfg, 200, 400, 50);
  EXPECT_GT(ckpt.trace.Size(), no_ckpt.trace.Size());
}

TEST(TpccTraceTest, TraceIsSkewed) {
  // The paper observes TPC-C page writes are hot/cold skewed (~80-20,
  // §6.3). Check the measured suffix: the hottest 30% of pages should
  // receive well over half the writes.
  TpccConfig cfg = MiniConfig();
  const TpccTraceResult r = GenerateTpccTrace(cfg, 500, 4000);
  auto freq = r.trace.ComputeExactFrequencies(r.measure_from, r.trace.Size());
  std::sort(freq.begin(), freq.end(), std::greater<double>());
  double hot_mass = 0, total = 0;
  for (size_t i = 0; i < freq.size(); ++i) {
    total += freq[i];
    if (i < freq.size() * 3 / 10) hot_mass += freq[i];
  }
  EXPECT_GT(hot_mass / total, 0.6);
}

TEST(TpccTraceTest, SerialTraceMatchesGolden) {
  // Pins the trace generator page for page: the engine's pin/unpin order
  // decides the buffer pool's LRU order and so every write-back, and any
  // change there (descent order, split restart, replacement structure,
  // RNG streams) shows up here. Fig. 6's committed numbers come from
  // this generator, so a change that moves these values changes them.
  TpccConfig cfg = MiniConfig();
  const TpccTraceResult r = GenerateTpccTrace(cfg, 500, 1500, 200);
  uint64_t h = 1469598103934665603ull;  // FNV-1a-64 of the page sequence
  for (const TraceRecord& rec : r.trace.records()) {
    for (int i = 0; i < 4; ++i) {
      h ^= (static_cast<uint64_t>(rec.page) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  EXPECT_EQ(r.trace.Size(), 7615u);
  EXPECT_EQ(r.measure_from, 2445u);
  EXPECT_EQ(r.pages_after_load, 965u);
  EXPECT_EQ(r.pages_final, 1430u);
  // Hits only: NewOrder and Payment no longer re-read a row they hold,
  // and those re-reads were pool hits that wrote nothing.
  EXPECT_EQ(r.pool_hits, 207807u);
  EXPECT_EQ(r.pool_misses, 9644u);
  EXPECT_EQ(r.pool_evictions, 9388u);
  EXPECT_EQ(r.pool_write_backs, 7615u);
  EXPECT_EQ(h, 2747864229130421725ull);
}

}  // namespace
}  // namespace lss::tpcc
