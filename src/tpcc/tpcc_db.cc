#include "tpcc/tpcc_db.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <thread>
#include <vector>

#include "tpcc/keys.h"
#include "util/rng.h"

namespace lss::tpcc {

namespace {

BufferPool::WriteObserver MakeTraceObserver(Trace* trace) {
  if (trace == nullptr) return BufferPool::WriteObserver();
  return [trace](PageNo p) { trace->AppendWrite(p); };
}

// Row-identity hashes for the striped row-lock table. The tag keeps
// stock and customer rows from systematically sharing stripes.
uint64_t StockRowHash(uint32_t w, uint32_t i_id) {
  return SplitMix64((1ull << 40) ^ (static_cast<uint64_t>(w) << 20) ^ i_id);
}

uint64_t CustomerRowHash(uint32_t w, uint32_t d, uint32_t c) {
  return SplitMix64((2ull << 40) ^ (static_cast<uint64_t>(w) << 24) ^
                    (static_cast<uint64_t>(d) << 16) ^ c);
}

}  // namespace

TpccDb::TpccDb(const TpccConfig& config, Trace* trace)
    : TpccDb(config, MakeTraceObserver(trace)) {
  // A single Trace is not thread-safe; remember to keep Populate on this
  // thread.
  single_threaded_observer_ = trace != nullptr;
}

TpccDb::TpccDb(const TpccConfig& config, BufferPool::WriteObserver observer)
    : config_(config),
      rnd_(config.seed),
      pool_(&pager_, config.buffer_pool_pages, std::move(observer)),
      session0_(config.seed, 0) {
  InitPartitions();
}

void TpccDb::InitPartitions() {
  const uint32_t groups = config_.PartitionGroups();
  parts_.reserve(groups);
  for (uint32_t p = 0; p < groups; ++p) {
    auto part = std::make_unique<Partition>();
    part->warehouse = std::make_unique<BTree>(&pool_);
    part->district = std::make_unique<BTree>(&pool_);
    part->customer = std::make_unique<BTree>(&pool_);
    part->history = std::make_unique<BTree>(&pool_);
    part->new_order = std::make_unique<BTree>(&pool_);
    part->order = std::make_unique<BTree>(&pool_);
    part->order_line = std::make_unique<BTree>(&pool_);
    part->stock = std::make_unique<BTree>(&pool_);
    part->customer_name_idx = std::make_unique<BTree>(&pool_);
    part->order_customer_idx = std::make_unique<BTree>(&pool_);
    parts_.push_back(std::move(part));
  }
  item_ = std::make_unique<BTree>(&pool_);

  wstate_.reserve(config_.warehouses);
  for (uint32_t w = 0; w < config_.warehouses; ++w) {
    auto ws = std::make_unique<WarehouseState>();
    ws->district_mu =
        std::make_unique<std::mutex[]>(config_.districts_per_warehouse);
    wstate_.push_back(std::move(ws));
  }
  row_locks_ = std::make_unique<std::mutex[]>(kRowLockStripes);
}

TpccDb::Session TpccDb::MakeSession(uint32_t worker) const {
  assert(worker < workers());
  // Worker 0 reproduces the built-in session's stream; other workers get
  // decorrelated streams off the same seed.
  return Session(config_.seed + worker * 0x9E3779B97F4A7C15ull, worker);
}

uint32_t TpccDb::HomeWarehouse(Session& s) {
  const uint32_t groups = static_cast<uint32_t>(parts_.size());
  const uint32_t g = s.worker_ % groups;
  const uint32_t count = HomeWarehouseCount(s.worker_);
  const uint32_t idx = static_cast<uint32_t>(s.rnd_.Uniform(1, count));
  return g + 1 + (idx - 1) * groups;
}

// --- Population ----------------------------------------------------------

void TpccDb::Populate() {
  PopulateItems();
  const uint32_t groups = partition_groups();
  if (groups > 1 && !single_threaded_observer_) {
    // Each thread populates only its own partition group, so the groups
    // are independent up to the (thread-safe) buffer pool and pager.
    std::vector<std::thread> threads;
    threads.reserve(groups);
    for (uint32_t t = 0; t < groups; ++t) {
      threads.emplace_back([this, t] { PopulateWorker(t); });
    }
    for (std::thread& th : threads) th.join();
  } else {
    for (uint32_t t = 0; t < groups; ++t) PopulateWorker(t);
  }
}

void TpccDb::PopulateItems() {
  // Items (shared across warehouses; read-only once loaded).
  for (uint32_t i = 1; i <= config_.items; ++i) {
    ItemRow row{};
    row.i_id = static_cast<int32_t>(i);
    row.i_im_id = static_cast<int32_t>(rnd_.Uniform(1, 10000));
    SetField(row.i_name, rnd_.AString(14, 24));
    row.i_price = 1.0 + rnd_.UniformDouble() * 99.0;
    SetField(row.i_data, rnd_.AString(26, 40));
    item_->Insert(ItemKey(i), RowView(row));
  }
}

void TpccDb::PopulateWorker(uint32_t group) {
  const uint32_t groups = static_cast<uint32_t>(parts_.size());
  assert(group < groups);
  for (uint32_t w = group + 1; w <= config_.warehouses; w += groups) {
    PopulateWarehouse(w);
  }
}

void TpccDb::PopulateWarehouse(uint32_t w) {
  // A per-warehouse RNG stream keeps population deterministic no matter
  // how warehouses are spread over threads.
  TpccRandom wrnd(config_.seed * 0x9E3779B97F4A7C15ull + w);
  Partition& part = Part(w);
  WarehouseState& ws = WState(w);

  WarehouseRow wr{};
  wr.w_id = static_cast<int32_t>(w);
  SetField(wr.w_name, wrnd.AString(6, 10));
  SetField(wr.w_street_1, wrnd.AString(10, 20));
  SetField(wr.w_street_2, wrnd.AString(10, 20));
  SetField(wr.w_city, wrnd.AString(10, 20));
  SetField(wr.w_state, wrnd.AString(2, 2));
  SetField(wr.w_zip, wrnd.NString(9, 9));
  wr.w_tax = wrnd.UniformDouble() * 0.2;
  wr.w_ytd = 300000.0;
  part.warehouse->Insert(WarehouseKey(w), RowView(wr));

  // Stock.
  for (uint32_t i = 1; i <= config_.items; ++i) {
    StockRow sr{};
    sr.s_i_id = static_cast<int32_t>(i);
    sr.s_w_id = static_cast<int32_t>(w);
    sr.s_quantity = static_cast<int32_t>(wrnd.Uniform(10, 100));
    for (auto& dist : sr.s_dist) SetField(dist, wrnd.AString(24, 24));
    sr.s_ytd = 0;
    sr.s_order_cnt = 0;
    sr.s_remote_cnt = 0;
    SetField(sr.s_data, wrnd.AString(26, 40));
    part.stock->Insert(StockKey(w, i), RowView(sr));
  }

  for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    DistrictRow dr{};
    dr.d_id = static_cast<int32_t>(d);
    dr.d_w_id = static_cast<int32_t>(w);
    SetField(dr.d_name, wrnd.AString(6, 10));
    SetField(dr.d_street_1, wrnd.AString(10, 20));
    SetField(dr.d_street_2, wrnd.AString(10, 20));
    SetField(dr.d_city, wrnd.AString(10, 20));
    SetField(dr.d_state, wrnd.AString(2, 2));
    SetField(dr.d_zip, wrnd.NString(9, 9));
    dr.d_tax = wrnd.UniformDouble() * 0.2;
    dr.d_ytd = 30000.0;
    dr.d_next_o_id = static_cast<int32_t>(config_.orders_per_district + 1);
    part.district->Insert(DistrictKey(w, d), RowView(dr));

    // Customers (+1 history row each).
    for (uint32_t c = 1; c <= config_.customers_per_district; ++c) {
      CustomerRow cr{};
      cr.c_id = static_cast<int32_t>(c);
      cr.c_d_id = static_cast<int32_t>(d);
      cr.c_w_id = static_cast<int32_t>(w);
      SetField(cr.c_first, wrnd.AString(8, 16));
      SetField(cr.c_middle, "OE");
      // First 1000 customers get sequential names so every name exists.
      const std::string last = (c <= 1000)
                                   ? TpccRandom::LastName((c - 1) % 1000)
                                   : wrnd.RandomLastNameLoad();
      SetField(cr.c_last, last);
      SetField(cr.c_street_1, wrnd.AString(10, 20));
      SetField(cr.c_street_2, wrnd.AString(10, 20));
      SetField(cr.c_city, wrnd.AString(10, 20));
      SetField(cr.c_state, wrnd.AString(2, 2));
      SetField(cr.c_zip, wrnd.NString(9, 9));
      SetField(cr.c_phone, wrnd.NString(16, 16));
      cr.c_since = Now();
      SetField(cr.c_credit, wrnd.Uniform(1, 10) == 1 ? "BC" : "GC");
      cr.c_credit_lim = 50000.0;
      cr.c_discount = wrnd.UniformDouble() * 0.5;
      cr.c_balance = -10.0;
      cr.c_ytd_payment = 10.0;
      cr.c_payment_cnt = 1;
      cr.c_delivery_cnt = 0;
      SetField(cr.c_data, wrnd.AString(200, 300));
      part.customer->Insert(CustomerKey(w, d, c), RowView(cr));
      part.customer_name_idx->Insert(CustomerNameKey(w, d, last, c),
                                     std::string_view());

      HistoryRow hr{};
      hr.h_c_id = cr.c_id;
      hr.h_c_d_id = cr.c_d_id;
      hr.h_c_w_id = cr.c_w_id;
      hr.h_d_id = cr.c_d_id;
      hr.h_w_id = cr.c_w_id;
      hr.h_date = Now();
      hr.h_amount = 10.0;
      SetField(hr.h_data, wrnd.AString(12, 24));
      part.history->Insert(
          HistoryKey(w, d,
                     ws.history_seq.fetch_add(1, std::memory_order_relaxed)),
          RowView(hr));
    }

    // Orders: one per customer, customer ids permuted; the oldest ~70%
    // delivered, the rest pending in NEW_ORDER.
    std::vector<uint32_t> cust_perm(config_.customers_per_district);
    for (uint32_t c = 0; c < cust_perm.size(); ++c) cust_perm[c] = c + 1;
    for (size_t i = cust_perm.size(); i > 1; --i) {
      std::swap(cust_perm[i - 1], cust_perm[wrnd.rng().NextBounded(i)]);
    }
    const uint32_t delivered_upto =
        config_.orders_per_district * 7 / 10;
    for (uint32_t o = 1; o <= config_.orders_per_district; ++o) {
      const uint32_t c = cust_perm[(o - 1) % cust_perm.size()];
      OrderRow orow{};
      orow.o_id = static_cast<int32_t>(o);
      orow.o_d_id = static_cast<int32_t>(d);
      orow.o_w_id = static_cast<int32_t>(w);
      orow.o_c_id = static_cast<int32_t>(c);
      orow.o_entry_d = Now();
      orow.o_ol_cnt = static_cast<int32_t>(wrnd.Uniform(5, 15));
      orow.o_carrier_id =
          o <= delivered_upto ? static_cast<int32_t>(wrnd.Uniform(1, 10))
                              : 0;
      orow.o_all_local = 1;
      part.order->Insert(OrderKey(w, d, o), RowView(orow));
      part.order_customer_idx->Insert(OrderCustomerKey(w, d, c, o),
                                      std::string_view());
      for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
        OrderLineRow ol{};
        ol.ol_o_id = orow.o_id;
        ol.ol_d_id = orow.o_d_id;
        ol.ol_w_id = orow.o_w_id;
        ol.ol_number = l;
        ol.ol_i_id = static_cast<int32_t>(wrnd.Uniform(1, config_.items));
        ol.ol_supply_w_id = orow.o_w_id;
        ol.ol_delivery_d = o <= delivered_upto ? orow.o_entry_d : 0;
        ol.ol_quantity = 5;
        ol.ol_amount =
            o <= delivered_upto ? 0.0 : wrnd.UniformDouble() * 9999.99;
        SetField(ol.ol_dist_info, wrnd.AString(24, 24));
        part.order_line->Insert(
            OrderLineKey(w, d, o, static_cast<uint32_t>(l)), RowView(ol));
      }
      if (o > delivered_upto) {
        NewOrderRow no{};
        no.no_o_id = orow.o_id;
        no.no_d_id = orow.o_d_id;
        no.no_w_id = orow.o_w_id;
        part.new_order->Insert(NewOrderKey(w, d, o), RowView(no));
      }
    }
  }
}

// --- Transactions ---------------------------------------------------------

TpccDb::TxnType TpccDb::RunNextTransaction(Session& s) {
  const int64_t r = s.rnd_.Uniform(1, 100);
  TxnType t;
  if (r <= 45) {
    t = TxnType::kNewOrder;
    NewOrder(s);
  } else if (r <= 88) {
    t = TxnType::kPayment;
    Payment(s);
  } else if (r <= 92) {
    t = TxnType::kOrderStatus;
    OrderStatus(s);
  } else if (r <= 96) {
    t = TxnType::kDelivery;
    Delivery(s);
  } else {
    t = TxnType::kStockLevel;
    StockLevel(s);
  }
  txn_counts_[static_cast<int>(t)].fetch_add(1, std::memory_order_relaxed);
  return t;
}

bool TpccDb::NewOrder(Session& s) {
  const uint32_t w = HomeWarehouse(s);
  const uint32_t d = static_cast<uint32_t>(
      s.rnd_.Uniform(1, config_.districts_per_warehouse));
  const uint32_t c = static_cast<uint32_t>(
      s.rnd_.NURand(1023, 1, config_.customers_per_district));
  const int ol_cnt = static_cast<int>(s.rnd_.Uniform(5, 15));
  // 1% of New-Order transactions use an invalid item and roll back
  // (clause 2.4.1.4). Without undo we emulate the effect: reads happen,
  // writes do not.
  const bool rollback = s.rnd_.Uniform(1, 100) == 1;

  Partition& home = Part(w);

  std::string buf;
  WarehouseRow wr;
  if (!home.warehouse->Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
    return false;
  }
  DistrictRow dr;
  if (!home.district->Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
    return false;
  }
  CustomerRow cr;
  if (!home.customer->Get(CustomerKey(w, d, c), &buf) || !RowFrom(buf, &cr)) {
    return false;
  }

  if (rollback) {
    // Read the items that would have been ordered, then abort. ITEM is
    // shared and read-only, so no latch is needed for it.
    for (int l = 0; l < ol_cnt; ++l) {
      const uint32_t i =
          static_cast<uint32_t>(s.rnd_.NURand(8191, 1, config_.items));
      item_->Get(ItemKey(i), &buf);
    }
    return false;
  }

  // o_id allocation: the district row's only RMW in this transaction,
  // re-read and bumped under the district mutex. Ownership of the fresh
  // o_id makes every insert below contention-free.
  uint32_t o_id;
  {
    std::lock_guard<std::mutex> dl(DistrictMutex(w, d));
    if (!home.district->Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
      return false;
    }
    o_id = static_cast<uint32_t>(dr.d_next_o_id);
    dr.d_next_o_id += 1;
    home.district->Put(DistrictKey(w, d), RowView(dr));
  }

  OrderRow orow{};
  orow.o_id = static_cast<int32_t>(o_id);
  orow.o_d_id = static_cast<int32_t>(d);
  orow.o_w_id = static_cast<int32_t>(w);
  orow.o_c_id = static_cast<int32_t>(c);
  orow.o_entry_d = Now();
  orow.o_carrier_id = 0;
  orow.o_ol_cnt = ol_cnt;
  orow.o_all_local = 1;

  double total = 0.0;
  for (int l = 1; l <= ol_cnt; ++l) {
    const uint32_t i_id =
        static_cast<uint32_t>(s.rnd_.NURand(8191, 1, config_.items));
    // 1% remote supply warehouse when there is more than one.
    uint32_t supply_w = w;
    if (config_.warehouses > 1 && s.rnd_.Uniform(1, 100) == 1) {
      do {
        supply_w =
            static_cast<uint32_t>(s.rnd_.Uniform(1, config_.warehouses));
      } while (supply_w == w);
      orow.o_all_local = 0;
    }
    const int32_t qty = static_cast<int32_t>(s.rnd_.Uniform(1, 10));

    ItemRow ir;
    if (!item_->Get(ItemKey(i_id), &buf) || !RowFrom(buf, &ir)) return false;

    // Stock read-modify-write under the row's striped lock — the same
    // path whether the supplying warehouse is local or remote, since the
    // lock names the row, not a partition.
    StockRow sr;
    Partition& sp = Part(supply_w);
    {
      std::lock_guard<std::mutex> rl(
          RowLockFor(StockRowHash(supply_w, i_id)));
      if (!sp.stock->Get(StockKey(supply_w, i_id), &buf) ||
          !RowFrom(buf, &sr)) {
        return false;
      }
      sr.s_quantity = sr.s_quantity >= qty + 10 ? sr.s_quantity - qty
                                                : sr.s_quantity - qty + 91;
      sr.s_ytd += qty;
      sr.s_order_cnt += 1;
      if (supply_w != w) sr.s_remote_cnt += 1;
      sp.stock->Put(StockKey(supply_w, i_id), RowView(sr));
    }

    OrderLineRow ol{};
    ol.ol_o_id = static_cast<int32_t>(o_id);
    ol.ol_d_id = static_cast<int32_t>(d);
    ol.ol_w_id = static_cast<int32_t>(w);
    ol.ol_number = l;
    ol.ol_i_id = static_cast<int32_t>(i_id);
    ol.ol_supply_w_id = static_cast<int32_t>(supply_w);
    ol.ol_delivery_d = 0;
    ol.ol_quantity = qty;
    ol.ol_amount = qty * ir.i_price;
    std::memcpy(ol.ol_dist_info, sr.s_dist[d - 1], sizeof(ol.ol_dist_info));
    home.order_line->Insert(
        OrderLineKey(w, d, o_id, static_cast<uint32_t>(l)), RowView(ol));
    total += ol.ol_amount;
  }
  (void)total;

  // ORDER before NEW_ORDER: consistency condition 4 (every NEW_ORDER
  // row references an existing undelivered order) then holds even for
  // an observer racing this commit, not just at quiescent points.
  home.order->Insert(OrderKey(w, d, o_id), RowView(orow));
  home.order_customer_idx->Insert(OrderCustomerKey(w, d, c, o_id),
                                  std::string_view());
  NewOrderRow no{};
  no.no_o_id = static_cast<int32_t>(o_id);
  no.no_d_id = static_cast<int32_t>(d);
  no.no_w_id = static_cast<int32_t>(w);
  home.new_order->Insert(NewOrderKey(w, d, o_id), RowView(no));
  return true;
}

bool TpccDb::PickCustomer(Session& s, uint32_t w, uint32_t d,
                          CustomerRow* row) {
  Partition& part = Part(w);
  std::string buf;
  if (s.rnd_.Uniform(1, 100) <= 60) {
    // By last name: collect matches, take the middle one (clause 2.5.2.2).
    // Scaled-down databases seed fewer than the standard's 1000 names
    // (population gives customer c <= 1000 name (c-1) % 1000), so the
    // run-phase draw is folded into the seeded name space.
    const int name_space = static_cast<int>(
        std::min<uint32_t>(1000, config_.customers_per_district));
    const int name_num =
        static_cast<int>(s.rnd_.NURand(255, 0, 999)) % name_space;
    const std::string last = TpccRandom::LastName(name_num);
    const std::string prefix = CustomerNamePrefix(w, d, last);
    std::vector<uint32_t> ids;
    for (auto it = part.customer_name_idx->Seek(prefix);
         it.Valid() && HasPrefix(it.key(), prefix); it.Next()) {
      ids.push_back(ReadU32(it.key(), 24));
    }
    if (ids.empty()) return false;
    const uint32_t c = ids[ids.size() / 2];
    return part.customer->Get(CustomerKey(w, d, c), &buf) &&
           RowFrom(buf, row);
  }
  const uint32_t c = static_cast<uint32_t>(
      s.rnd_.NURand(1023, 1, config_.customers_per_district));
  return part.customer->Get(CustomerKey(w, d, c), &buf) && RowFrom(buf, row);
}

bool TpccDb::Payment(Session& s) {
  const uint32_t w = HomeWarehouse(s);
  const uint32_t d = static_cast<uint32_t>(
      s.rnd_.Uniform(1, config_.districts_per_warehouse));
  // 85% local customer; 15% from a remote warehouse when there is one.
  uint32_t c_w = w;
  uint32_t c_d = d;
  if (config_.warehouses > 1 && s.rnd_.Uniform(1, 100) > 85) {
    do {
      c_w = static_cast<uint32_t>(s.rnd_.Uniform(1, config_.warehouses));
    } while (c_w == w);
    c_d = static_cast<uint32_t>(
        s.rnd_.Uniform(1, config_.districts_per_warehouse));
  }
  const double amount = 1.0 + s.rnd_.UniformDouble() * 4999.0;

  Partition& home = Part(w);

  // W_YTD read-modify-write under the warehouse mutex.
  std::string buf;
  WarehouseRow wr;
  {
    std::lock_guard<std::mutex> wl(WState(w).mu);
    if (!home.warehouse->Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
      return false;
    }
    wr.w_ytd += amount;
    home.warehouse->Put(WarehouseKey(w), RowView(wr));
  }

  // D_YTD read-modify-write under the district mutex. Both YTD bumps
  // commit before the transaction can block on any other lock, so the
  // condition-1 sum invariant holds at every quiescent point.
  DistrictRow dr;
  {
    std::lock_guard<std::mutex> dl(DistrictMutex(w, d));
    if (!home.district->Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
      return false;
    }
    dr.d_ytd += amount;
    home.district->Put(DistrictKey(w, d), RowView(dr));
  }

  // Customer selection is a lock-free scan; PickCustomer's snapshot may
  // be stale by the time we get the row lock, so the RMW re-reads the
  // chosen row under it.
  CustomerRow cr;
  if (!PickCustomer(s, c_w, c_d, &cr)) return false;
  Partition& cp = Part(c_w);
  const uint32_t c_id = static_cast<uint32_t>(cr.c_id);
  const std::string ckey = CustomerKey(c_w, c_d, c_id);
  {
    std::lock_guard<std::mutex> rl(
        RowLockFor(CustomerRowHash(c_w, c_d, c_id)));
    if (!cp.customer->Get(ckey, &buf) || !RowFrom(buf, &cr)) return false;
    cr.c_balance -= amount;
    cr.c_ytd_payment += amount;
    cr.c_payment_cnt += 1;
    if (GetField(cr.c_credit) == "BC") {
      // Bad credit: prepend payment info to c_data (clause 2.5.2.2).
      char info[64];
      std::snprintf(info, sizeof(info), "%d %d %d %d %d %.2f|", cr.c_id,
                    cr.c_d_id, cr.c_w_id, d, w, amount);
      std::string data = info + GetField(cr.c_data);
      SetField(cr.c_data, data);
    }
    cp.customer->Put(ckey, RowView(cr));
  }

  HistoryRow hr{};
  hr.h_c_id = cr.c_id;
  hr.h_c_d_id = cr.c_d_id;
  hr.h_c_w_id = cr.c_w_id;
  hr.h_d_id = static_cast<int32_t>(d);
  hr.h_w_id = static_cast<int32_t>(w);
  hr.h_date = Now();
  hr.h_amount = amount;
  SetField(hr.h_data, GetField(wr.w_name) + "    " + GetField(dr.d_name));
  // History keys embed a per-warehouse atomic sequence, so the insert
  // needs no lock: the key is unique to this transaction.
  home.history->Insert(
      HistoryKey(w, d,
                 WState(w).history_seq.fetch_add(1,
                                                 std::memory_order_relaxed)),
      RowView(hr));
  return true;
}

bool TpccDb::OrderStatus(Session& s) {
  const uint32_t w = HomeWarehouse(s);
  const uint32_t d = static_cast<uint32_t>(
      s.rnd_.Uniform(1, config_.districts_per_warehouse));
  // Read-only: every step is a single (internally latched) tree read,
  // so no locks are taken.
  Partition& home = Part(w);

  CustomerRow cr;
  if (!PickCustomer(s, w, d, &cr)) return false;

  // Most recent order via the complement-keyed index.
  const std::string prefix =
      OrderCustomerKey(w, d, static_cast<uint32_t>(cr.c_id), ~0u)
          .substr(0, 12);
  auto it = home.order_customer_idx->Seek(prefix);
  if (!it.Valid() || !HasPrefix(it.key(), prefix)) return false;
  const uint32_t o_id = ~ReadU32(it.key(), 12);

  std::string buf;
  OrderRow orow;
  if (!home.order->Get(OrderKey(w, d, o_id), &buf) || !RowFrom(buf, &orow)) {
    return false;
  }
  for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
    home.order_line->Get(OrderLineKey(w, d, o_id, static_cast<uint32_t>(l)),
                         &buf);
  }
  return true;
}

bool TpccDb::Delivery(Session& s) {
  const uint32_t w = HomeWarehouse(s);
  const int32_t carrier = static_cast<int32_t>(s.rnd_.Uniform(1, 10));
  bool delivered_any = false;
  std::string buf;

  Partition& home = Part(w);

  for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    // Dequeue the oldest undelivered order atomically under the district
    // mutex. A successful delete confers exclusive ownership of o_id, so
    // the order / order-line updates below need no further locking.
    uint32_t o_id = 0;
    bool claimed = false;
    {
      std::lock_guard<std::mutex> dl(DistrictMutex(w, d));
      const std::string prefix = NewOrderKey(w, d, 0).substr(0, 8);
      auto it = home.new_order->Seek(prefix);
      if (it.Valid() && HasPrefix(it.key(), prefix)) {
        o_id = ReadU32(it.key(), 8);
        claimed = home.new_order->Delete(NewOrderKey(w, d, o_id));
      }
    }
    if (!claimed) continue;

    OrderRow orow;
    if (!home.order->Get(OrderKey(w, d, o_id), &buf) ||
        !RowFrom(buf, &orow)) {
      continue;
    }
    orow.o_carrier_id = carrier;
    home.order->Put(OrderKey(w, d, o_id), RowView(orow));

    double total = 0.0;
    const int64_t now = Now();
    for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
      OrderLineRow ol;
      const std::string key =
          OrderLineKey(w, d, o_id, static_cast<uint32_t>(l));
      if (!home.order_line->Get(key, &buf) || !RowFrom(buf, &ol)) continue;
      ol.ol_delivery_d = now;
      total += ol.ol_amount;
      home.order_line->Put(key, RowView(ol));
    }

    // Customer balance RMW shares the striped row locks with Payment.
    CustomerRow cr;
    const uint32_t c_id = static_cast<uint32_t>(orow.o_c_id);
    const std::string ckey = CustomerKey(w, d, c_id);
    {
      std::lock_guard<std::mutex> rl(
          RowLockFor(CustomerRowHash(w, d, c_id)));
      if (home.customer->Get(ckey, &buf) && RowFrom(buf, &cr)) {
        cr.c_balance += total;
        cr.c_delivery_cnt += 1;
        home.customer->Put(ckey, RowView(cr));
      }
    }
    delivered_any = true;
  }
  return delivered_any;
}

bool TpccDb::StockLevel(Session& s) {
  const uint32_t w = HomeWarehouse(s);
  const uint32_t d = static_cast<uint32_t>(
      s.rnd_.Uniform(1, config_.districts_per_warehouse));
  const int32_t threshold = static_cast<int32_t>(s.rnd_.Uniform(10, 20));

  // Read-only: the district fetch and each stock probe are single tree
  // reads, so no locks are taken (the scan sees some consistent-enough
  // recent window, which is all clause 2.8 needs).
  Partition& home = Part(w);

  std::string buf;
  DistrictRow dr;
  if (!home.district->Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
    return false;
  }
  const uint32_t next = static_cast<uint32_t>(dr.d_next_o_id);
  const uint32_t lo = next > 20 ? next - 20 : 1;

  // Distinct items in the last 20 orders' lines with low stock.
  std::set<int32_t> low;
  const std::string begin = OrderLineKey(w, d, lo, 0);
  const std::string end = OrderLineKey(w, d, next, 0);
  for (auto it = home.order_line->Seek(begin); it.Valid() && it.key() < end;
       it.Next()) {
    OrderLineRow ol;
    if (!RowFrom(it.value(), &ol)) continue;
    StockRow sr;
    if (home.stock->Get(StockKey(w, static_cast<uint32_t>(ol.ol_i_id)),
                        &buf) &&
        RowFrom(buf, &sr) && sr.s_quantity < threshold) {
      low.insert(ol.ol_i_id);
    }
  }
  return true;
}

// --- Consistency -----------------------------------------------------------

Status TpccDb::CheckConsistency() {
  {
    Status s = item_->CheckIntegrity();
    if (!s.ok()) return s;
  }
  for (const auto& part : parts_) {
    for (BTree* t :
         {part->warehouse.get(), part->district.get(), part->customer.get(),
          part->history.get(), part->new_order.get(), part->order.get(),
          part->order_line.get(), part->stock.get(),
          part->customer_name_idx.get(), part->order_customer_idx.get()}) {
      Status s = t->CheckIntegrity();
      if (!s.ok()) return s;
    }
  }

  std::string buf;
  for (uint32_t w = 1; w <= config_.warehouses; ++w) {
    Partition& part = Part(w);
    WarehouseRow wr;
    if (!part.warehouse->Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
      return Status::Corruption("warehouse row missing");
    }
    double district_ytd = 0.0;
    for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      DistrictRow dr;
      if (!part.district->Get(DistrictKey(w, d), &buf) ||
          !RowFrom(buf, &dr)) {
        return Status::Corruption("district row missing");
      }
      district_ytd += dr.d_ytd - 30000.0;

      // Condition 2: D_NEXT_O_ID - 1 == max order id in district.
      const uint32_t expect_max = static_cast<uint32_t>(dr.d_next_o_id) - 1;
      if (!part.order->Get(OrderKey(w, d, expect_max), &buf)) {
        return Status::Corruption("max order id != d_next_o_id - 1");
      }
      if (part.order->Get(OrderKey(w, d, expect_max + 1), nullptr)) {
        return Status::Corruption("order beyond d_next_o_id");
      }

      // Condition 4: every NEW_ORDER row has an undelivered order.
      const std::string prefix = NewOrderKey(w, d, 0).substr(0, 8);
      for (auto it = part.new_order->Seek(prefix);
           it.Valid() && HasPrefix(it.key(), prefix); it.Next()) {
        const uint32_t o_id = ReadU32(it.key(), 8);
        OrderRow orow;
        if (!part.order->Get(OrderKey(w, d, o_id), &buf) ||
            !RowFrom(buf, &orow)) {
          return Status::Corruption("new_order without order");
        }
        if (orow.o_carrier_id != 0) {
          return Status::Corruption("new_order for delivered order");
        }
      }
    }
    // Condition 1: W_YTD == 300000 + sum of district YTD deltas.
    if (std::abs(wr.w_ytd - 300000.0 - district_ytd) > 1e-4) {
      return Status::Corruption("w_ytd != sum(d_ytd)");
    }
  }

  // Condition 3 (sampled over the first warehouse/district to bound
  // cost): every order has exactly o_ol_cnt lines.
  Partition& p1 = Part(1);
  for (uint32_t o = 1;; ++o) {
    OrderRow orow;
    if (!p1.order->Get(OrderKey(1, 1, o), &buf) || !RowFrom(buf, &orow)) {
      break;
    }
    for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
      if (!p1.order_line->Get(
              OrderLineKey(1, 1, o, static_cast<uint32_t>(l)), nullptr)) {
        return Status::Corruption("missing order line");
      }
    }
    if (p1.order_line->Get(
            OrderLineKey(1, 1, o, static_cast<uint32_t>(orow.o_ol_cnt) + 1),
            nullptr)) {
      return Status::Corruption("extra order line");
    }
  }
  return Status::OK();
}

}  // namespace lss::tpcc
