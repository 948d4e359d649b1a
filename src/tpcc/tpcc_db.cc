#include "tpcc/tpcc_db.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <vector>

#include "tpcc/keys.h"

namespace lss::tpcc {

namespace {

BufferPool::WriteObserver MakeTraceObserver(Trace* trace) {
  if (trace == nullptr) return BufferPool::WriteObserver();
  return [trace](PageNo p) { trace->AppendWrite(p); };
}

}  // namespace

TpccDb::TpccDb(const TpccConfig& config, Trace* trace)
    : config_(config),
      rnd_(config.seed),
      txn_rnd_(config.seed),
      pool_(&pager_, config.buffer_pool_pages, MakeTraceObserver(trace)),
      warehouse_(&pool_),
      district_(&pool_),
      customer_(&pool_),
      history_(&pool_),
      new_order_(&pool_),
      order_(&pool_),
      order_line_(&pool_),
      stock_(&pool_),
      customer_name_idx_(&pool_),
      order_customer_idx_(&pool_),
      item_(&pool_),
      history_seq_(config.warehouses, 0) {}

uint32_t TpccDb::HomeWarehouse() {
  return static_cast<uint32_t>(txn_rnd_.Uniform(1, config_.warehouses));
}

// --- Population ----------------------------------------------------------

void TpccDb::Populate() {
  // Items (shared across warehouses; read-only once loaded).
  for (uint32_t i = 1; i <= config_.items; ++i) {
    ItemRow row{};
    row.i_id = static_cast<int32_t>(i);
    row.i_im_id = static_cast<int32_t>(rnd_.Uniform(1, 10000));
    SetField(row.i_name, rnd_.AString(14, 24));
    row.i_price = 1.0 + rnd_.UniformDouble() * 99.0;
    SetField(row.i_data, rnd_.AString(26, 40));
    item_.Insert(ItemKey(i), RowView(row));
  }
  for (uint32_t w = 1; w <= config_.warehouses; ++w) PopulateWarehouse(w);
}

void TpccDb::PopulateWarehouse(uint32_t w) {
  // Each warehouse has its own RNG stream, seeded from its number.
  TpccRandom wrnd(config_.seed * 0x9E3779B97F4A7C15ull + w);

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
  warehouse_.Insert(WarehouseKey(w), RowView(wr));

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
    stock_.Insert(StockKey(w, i), RowView(sr));
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
    district_.Insert(DistrictKey(w, d), RowView(dr));

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
      customer_.Insert(CustomerKey(w, d, c), RowView(cr));
      customer_name_idx_.Insert(CustomerNameKey(w, d, last, c),
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
      history_.Insert(HistoryKey(w, d, history_seq_[w - 1]++), RowView(hr));
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
      order_.Insert(OrderKey(w, d, o), RowView(orow));
      order_customer_idx_.Insert(OrderCustomerKey(w, d, c, o),
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
        order_line_.Insert(
            OrderLineKey(w, d, o, static_cast<uint32_t>(l)), RowView(ol));
      }
      if (o > delivered_upto) {
        NewOrderRow no{};
        no.no_o_id = orow.o_id;
        no.no_d_id = orow.o_d_id;
        no.no_w_id = orow.o_w_id;
        new_order_.Insert(NewOrderKey(w, d, o), RowView(no));
      }
    }
  }
}

// --- Transactions ---------------------------------------------------------

TpccDb::TxnType TpccDb::RunNextTransaction() {
  const int64_t r = txn_rnd_.Uniform(1, 100);
  TxnType t;
  if (r <= 45) {
    t = TxnType::kNewOrder;
    NewOrder();
  } else if (r <= 88) {
    t = TxnType::kPayment;
    Payment();
  } else if (r <= 92) {
    t = TxnType::kOrderStatus;
    OrderStatus();
  } else if (r <= 96) {
    t = TxnType::kDelivery;
    Delivery();
  } else {
    t = TxnType::kStockLevel;
    StockLevel();
  }
  ++txn_counts_[static_cast<int>(t)];
  return t;
}

bool TpccDb::NewOrder() {
  const uint32_t w = HomeWarehouse();
  const uint32_t d = static_cast<uint32_t>(
      txn_rnd_.Uniform(1, config_.districts_per_warehouse));
  const uint32_t c = static_cast<uint32_t>(
      txn_rnd_.NURand(1023, 1, config_.customers_per_district));
  const int ol_cnt = static_cast<int>(txn_rnd_.Uniform(5, 15));
  // 1% of New-Order transactions use an invalid item and roll back
  // (clause 2.4.1.4). Without undo we emulate the effect: reads happen,
  // writes do not.
  const bool rollback = txn_rnd_.Uniform(1, 100) == 1;

  std::string buf;
  WarehouseRow wr;
  if (!warehouse_.Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
    return false;
  }
  DistrictRow dr;
  if (!district_.Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
    return false;
  }
  CustomerRow cr;
  if (!customer_.Get(CustomerKey(w, d, c), &buf) || !RowFrom(buf, &cr)) {
    return false;
  }

  if (rollback) {
    // Read the items that would have been ordered, then abort.
    for (int l = 0; l < ol_cnt; ++l) {
      const uint32_t i =
          static_cast<uint32_t>(txn_rnd_.NURand(8191, 1, config_.items));
      item_.Get(ItemKey(i), &buf);
    }
    return false;
  }

  const uint32_t o_id = static_cast<uint32_t>(dr.d_next_o_id);
  dr.d_next_o_id += 1;
  district_.Put(DistrictKey(w, d), RowView(dr));

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
        static_cast<uint32_t>(txn_rnd_.NURand(8191, 1, config_.items));
    // 1% remote supply warehouse when there is more than one.
    uint32_t supply_w = w;
    if (config_.warehouses > 1 && txn_rnd_.Uniform(1, 100) == 1) {
      do {
        supply_w =
            static_cast<uint32_t>(txn_rnd_.Uniform(1, config_.warehouses));
      } while (supply_w == w);
      orow.o_all_local = 0;
    }
    const int32_t qty = static_cast<int32_t>(txn_rnd_.Uniform(1, 10));

    ItemRow ir;
    if (!item_.Get(ItemKey(i_id), &buf) || !RowFrom(buf, &ir)) return false;

    // Stock read-modify-write, local or remote supplying warehouse.
    StockRow sr;
    if (!stock_.Get(StockKey(supply_w, i_id), &buf) || !RowFrom(buf, &sr)) {
      return false;
    }
    sr.s_quantity = sr.s_quantity >= qty + 10 ? sr.s_quantity - qty
                                              : sr.s_quantity - qty + 91;
    sr.s_ytd += qty;
    sr.s_order_cnt += 1;
    if (supply_w != w) sr.s_remote_cnt += 1;
    stock_.Put(StockKey(supply_w, i_id), RowView(sr));

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
    order_line_.Insert(
        OrderLineKey(w, d, o_id, static_cast<uint32_t>(l)), RowView(ol));
    total += ol.ol_amount;
  }
  (void)total;

  order_.Insert(OrderKey(w, d, o_id), RowView(orow));
  order_customer_idx_.Insert(OrderCustomerKey(w, d, c, o_id),
                             std::string_view());
  NewOrderRow no{};
  no.no_o_id = static_cast<int32_t>(o_id);
  no.no_d_id = static_cast<int32_t>(d);
  no.no_w_id = static_cast<int32_t>(w);
  new_order_.Insert(NewOrderKey(w, d, o_id), RowView(no));
  return true;
}

bool TpccDb::PickCustomer(uint32_t w, uint32_t d, CustomerRow* row) {
  std::string buf;
  if (txn_rnd_.Uniform(1, 100) <= 60) {
    // By last name: collect matches, take the middle one (clause 2.5.2.2).
    // Scaled-down databases seed fewer than the standard's 1000 names
    // (population gives customer c <= 1000 name (c-1) % 1000), so the
    // run-phase draw is folded into the seeded name space.
    const int name_space = static_cast<int>(
        std::min<uint32_t>(1000, config_.customers_per_district));
    const int name_num =
        static_cast<int>(txn_rnd_.NURand(255, 0, 999)) % name_space;
    const std::string last = TpccRandom::LastName(name_num);
    const std::string prefix = CustomerNamePrefix(w, d, last);
    std::vector<uint32_t> ids;
    for (auto it = customer_name_idx_.Seek(prefix);
         it.Valid() && HasPrefix(it.key(), prefix); it.Next()) {
      ids.push_back(ReadU32(it.key(), 24));
    }
    if (ids.empty()) return false;
    const uint32_t c = ids[ids.size() / 2];
    return customer_.Get(CustomerKey(w, d, c), &buf) && RowFrom(buf, row);
  }
  const uint32_t c = static_cast<uint32_t>(
      txn_rnd_.NURand(1023, 1, config_.customers_per_district));
  return customer_.Get(CustomerKey(w, d, c), &buf) && RowFrom(buf, row);
}

bool TpccDb::Payment() {
  const uint32_t w = HomeWarehouse();
  const uint32_t d = static_cast<uint32_t>(
      txn_rnd_.Uniform(1, config_.districts_per_warehouse));
  // 85% local customer; 15% from a remote warehouse when there is one.
  uint32_t c_w = w;
  uint32_t c_d = d;
  if (config_.warehouses > 1 && txn_rnd_.Uniform(1, 100) > 85) {
    do {
      c_w = static_cast<uint32_t>(txn_rnd_.Uniform(1, config_.warehouses));
    } while (c_w == w);
    c_d = static_cast<uint32_t>(
        txn_rnd_.Uniform(1, config_.districts_per_warehouse));
  }
  const double amount = 1.0 + txn_rnd_.UniformDouble() * 4999.0;

  // W_YTD read-modify-write.
  std::string buf;
  WarehouseRow wr;
  if (!warehouse_.Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
    return false;
  }
  wr.w_ytd += amount;
  warehouse_.Put(WarehouseKey(w), RowView(wr));

  // D_YTD read-modify-write.
  DistrictRow dr;
  if (!district_.Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
    return false;
  }
  dr.d_ytd += amount;
  district_.Put(DistrictKey(w, d), RowView(dr));

  CustomerRow cr;
  if (!PickCustomer(c_w, c_d, &cr)) return false;
  const std::string ckey =
      CustomerKey(c_w, c_d, static_cast<uint32_t>(cr.c_id));
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
  customer_.Put(ckey, RowView(cr));

  HistoryRow hr{};
  hr.h_c_id = cr.c_id;
  hr.h_c_d_id = cr.c_d_id;
  hr.h_c_w_id = cr.c_w_id;
  hr.h_d_id = static_cast<int32_t>(d);
  hr.h_w_id = static_cast<int32_t>(w);
  hr.h_date = Now();
  hr.h_amount = amount;
  SetField(hr.h_data, GetField(wr.w_name) + "    " + GetField(dr.d_name));
  history_.Insert(HistoryKey(w, d, history_seq_[w - 1]++), RowView(hr));
  return true;
}

bool TpccDb::OrderStatus() {
  const uint32_t w = HomeWarehouse();
  const uint32_t d = static_cast<uint32_t>(
      txn_rnd_.Uniform(1, config_.districts_per_warehouse));
  CustomerRow cr;
  if (!PickCustomer(w, d, &cr)) return false;

  // Most recent order via the complement-keyed index.
  const std::string prefix =
      OrderCustomerKey(w, d, static_cast<uint32_t>(cr.c_id), ~0u)
          .substr(0, 12);
  auto it = order_customer_idx_.Seek(prefix);
  if (!it.Valid() || !HasPrefix(it.key(), prefix)) return false;
  const uint32_t o_id = ~ReadU32(it.key(), 12);

  std::string buf;
  OrderRow orow;
  if (!order_.Get(OrderKey(w, d, o_id), &buf) || !RowFrom(buf, &orow)) {
    return false;
  }
  for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
    order_line_.Get(OrderLineKey(w, d, o_id, static_cast<uint32_t>(l)), &buf);
  }
  return true;
}

bool TpccDb::Delivery() {
  const uint32_t w = HomeWarehouse();
  const int32_t carrier = static_cast<int32_t>(txn_rnd_.Uniform(1, 10));
  bool delivered_any = false;
  std::string buf;

  for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    // Dequeue the oldest undelivered order.
    const std::string prefix = NewOrderKey(w, d, 0).substr(0, 8);
    auto it = new_order_.Seek(prefix);
    if (!it.Valid() || !HasPrefix(it.key(), prefix)) continue;
    const uint32_t o_id = ReadU32(it.key(), 8);
    if (!new_order_.Delete(NewOrderKey(w, d, o_id))) continue;

    OrderRow orow;
    if (!order_.Get(OrderKey(w, d, o_id), &buf) || !RowFrom(buf, &orow)) {
      continue;
    }
    orow.o_carrier_id = carrier;
    order_.Put(OrderKey(w, d, o_id), RowView(orow));

    double total = 0.0;
    const int64_t now = Now();
    for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
      OrderLineRow ol;
      const std::string key =
          OrderLineKey(w, d, o_id, static_cast<uint32_t>(l));
      if (!order_line_.Get(key, &buf) || !RowFrom(buf, &ol)) continue;
      ol.ol_delivery_d = now;
      total += ol.ol_amount;
      order_line_.Put(key, RowView(ol));
    }

    // Customer balance read-modify-write.
    CustomerRow cr;
    const std::string ckey =
        CustomerKey(w, d, static_cast<uint32_t>(orow.o_c_id));
    if (customer_.Get(ckey, &buf) && RowFrom(buf, &cr)) {
      cr.c_balance += total;
      cr.c_delivery_cnt += 1;
      customer_.Put(ckey, RowView(cr));
    }
    delivered_any = true;
  }
  return delivered_any;
}

bool TpccDb::StockLevel() {
  const uint32_t w = HomeWarehouse();
  const uint32_t d = static_cast<uint32_t>(
      txn_rnd_.Uniform(1, config_.districts_per_warehouse));
  const int32_t threshold = static_cast<int32_t>(txn_rnd_.Uniform(10, 20));

  std::string buf;
  DistrictRow dr;
  if (!district_.Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
    return false;
  }
  const uint32_t next = static_cast<uint32_t>(dr.d_next_o_id);
  const uint32_t lo = next > 20 ? next - 20 : 1;

  // Distinct items in the last 20 orders' lines with low stock.
  std::set<int32_t> low;
  const std::string begin = OrderLineKey(w, d, lo, 0);
  const std::string end = OrderLineKey(w, d, next, 0);
  for (auto it = order_line_.Seek(begin); it.Valid() && it.key() < end;
       it.Next()) {
    OrderLineRow ol;
    if (!RowFrom(it.value(), &ol)) continue;
    StockRow sr;
    if (stock_.Get(StockKey(w, static_cast<uint32_t>(ol.ol_i_id)), &buf) &&
        RowFrom(buf, &sr) && sr.s_quantity < threshold) {
      low.insert(ol.ol_i_id);
    }
  }
  return true;
}

// --- Consistency -----------------------------------------------------------

Status TpccDb::CheckConsistency() {
  for (const BTree* t :
       {&item_, &warehouse_, &district_, &customer_, &history_, &new_order_,
        &order_, &order_line_, &stock_, &customer_name_idx_,
        &order_customer_idx_}) {
    Status s = t->CheckIntegrity();
    if (!s.ok()) return s;
  }

  std::string buf;
  for (uint32_t w = 1; w <= config_.warehouses; ++w) {
    WarehouseRow wr;
    if (!warehouse_.Get(WarehouseKey(w), &buf) || !RowFrom(buf, &wr)) {
      return Status::Corruption("warehouse row missing");
    }
    double district_ytd = 0.0;
    for (uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      DistrictRow dr;
      if (!district_.Get(DistrictKey(w, d), &buf) || !RowFrom(buf, &dr)) {
        return Status::Corruption("district row missing");
      }
      district_ytd += dr.d_ytd - 30000.0;

      // Condition 2: D_NEXT_O_ID - 1 == max order id in district.
      const uint32_t expect_max = static_cast<uint32_t>(dr.d_next_o_id) - 1;
      if (!order_.Get(OrderKey(w, d, expect_max), &buf)) {
        return Status::Corruption("max order id != d_next_o_id - 1");
      }
      if (order_.Get(OrderKey(w, d, expect_max + 1), nullptr)) {
        return Status::Corruption("order beyond d_next_o_id");
      }

      // Condition 4: every NEW_ORDER row has an undelivered order.
      const std::string prefix = NewOrderKey(w, d, 0).substr(0, 8);
      for (auto it = new_order_.Seek(prefix);
           it.Valid() && HasPrefix(it.key(), prefix); it.Next()) {
        const uint32_t o_id = ReadU32(it.key(), 8);
        OrderRow orow;
        if (!order_.Get(OrderKey(w, d, o_id), &buf) ||
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
  for (uint32_t o = 1;; ++o) {
    OrderRow orow;
    if (!order_.Get(OrderKey(1, 1, o), &buf) || !RowFrom(buf, &orow)) {
      break;
    }
    for (int32_t l = 1; l <= orow.o_ol_cnt; ++l) {
      if (!order_line_.Get(
              OrderLineKey(1, 1, o, static_cast<uint32_t>(l)), nullptr)) {
        return Status::Corruption("missing order line");
      }
    }
    if (order_line_.Get(
            OrderLineKey(1, 1, o, static_cast<uint32_t>(orow.o_ol_cnt) + 1),
            nullptr)) {
      return Status::Corruption("extra order line");
    }
  }
  return Status::OK();
}

}  // namespace lss::tpcc
