// Ablation: the two readings of the cost-benefit victim priority.
//
// The paper's §6.1.3 defines cost-benefit as (1-E)*age/E, which with E =
// emptiness prefers full old segments; the canonical LFS formula
// (Rosenblum & Ousterhout 1991) is benefit/cost = (E*age)/(2-E). Under
// uniform updates the literal formula is dramatically worse — which is
// exactly how cost-benefit behaves in the paper's Figure 5a — while the
// canonical formula is near age/greedy. Under skew both are mid-field.
// This bench quantifies the difference and justifies the design note in
// docs/POLICIES.md.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "core/policies/cost_benefit_policy.h"
#include "core/sharded_store.h"
#include "util/table_printer.h"
#include "workload/runner.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

double RunWith(CostBenefitPolicy::Formula formula,
               const WorkloadGenerator& workload, const StoreConfig& base,
               double f) {
  StoreConfig cfg = base;
  ApplyVariantConfig(Variant::kCostBenefit, &cfg);
  Status st;
  auto store = ShardedStore::Create(
      cfg, 1,
      [formula] { return std::make_unique<CostBenefitPolicy>(formula); }, &st);
  if (store == nullptr) return -1;
  Rng rng(42);
  const uint64_t user_pages = bench::UserPagesFor(cfg, f);
  for (PageId p = 0; p < user_pages; ++p) {
    if (!store->Write(p).ok()) return -1;
  }
  const uint64_t warm = 8 * user_pages;
  for (uint64_t i = 0; i < warm; ++i) {
    if (!store->Write(workload.NextPage(rng)).ok()) return -1;
  }
  store->ResetMeasurement();
  for (uint64_t i = 0; i < 12 * user_pages; ++i) {
    if (!store->Write(workload.NextPage(rng)).ok()) return -1;
  }
  return store->shard(0).stats().WriteAmplification();
}

void Run() {
  StoreConfig cfg = bench::DefaultConfig();
  cfg.num_segments = 512 * bench::ScaleFactor();
  TablePrinter table({"workload", "F", "canonical(E*age/(2-E))",
                      "paper-literal((1-E)*age/E)"});
  for (double f : {0.7, 0.8, 0.9}) {
    const uint64_t user_pages = bench::UserPagesFor(cfg, f);
    UniformWorkload uni(user_pages);
    ZipfianWorkload zipf(user_pages, 0.99);
    struct Cell {
      const char* workload;
      const WorkloadGenerator* gen;
    };
    for (const Cell& cell :
         {Cell{"uniform", &uni}, Cell{"zipf-0.99", &zipf}}) {
      const double canonical =
          RunWith(CostBenefitPolicy::Formula::kLfs, *cell.gen, cfg, f);
      const double literal = RunWith(CostBenefitPolicy::Formula::kPaperLiteral,
                                     *cell.gen, cfg, f);
      table.AddRow({TablePrinter::Cell(cell.workload),
                    TablePrinter::Cell(f, 2), TablePrinter::Cell(canonical, 3),
                    TablePrinter::Cell(literal, 3)});
      bench::Emit(bench::JsonRow("ablation_costbenefit")
                      .Str("workload", cell.workload)
                      .Num("fill", f)
                      .Num("wamp_canonical", canonical)
                      .Num("wamp_paper_literal", literal));
    }
  }
  std::printf("Ablation: cost-benefit victim priority formulas (Wamp; -1 "
              "means out of space)\n\n");
  table.Print(stdout);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}
