#ifndef LSS_WORKLOAD_GENERATOR_H_
#define LSS_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>

#include "core/types.h"
#include "util/rng.h"

namespace lss {

/// A stream of page-update targets over pages {0, ..., NumPages()-1}.
/// Generators also expose the exact per-page update frequency (normalised
/// to mean 1), which the `*-opt` policy variants consume as their oracle
/// (paper §6.1.3: "uses the exact page update frequency").
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;

  /// Descriptive name for reports ("uniform", "hot-cold 80-20", ...).
  virtual std::string name() const = 0;

  /// Number of user-visible pages.
  virtual uint64_t NumPages() const = 0;

  /// Draws the next page to update.
  virtual PageId NextPage(Rng& rng) const = 0;

  /// Exact relative update frequency of `page`; mean over pages is 1.
  virtual double ExactFrequency(PageId page) const = 0;
};

/// Uniform updates: every page equally likely (paper §2.2, Upf = 1).
class UniformWorkload : public WorkloadGenerator {
 public:
  explicit UniformWorkload(uint64_t pages) : pages_(pages) {}

  std::string name() const override { return "uniform"; }
  uint64_t NumPages() const override { return pages_; }
  PageId NextPage(Rng& rng) const override { return rng.NextBounded(pages_); }
  double ExactFrequency(PageId) const override { return 1.0; }

 private:
  uint64_t pages_;
};

/// Two-set hot-cold distribution "m : 1-m" (paper §3): a fraction m of
/// updates goes to the first (1-m)*pages page ids, the rest to the cold
/// remainder; updates are uniform within each set.
class HotColdWorkload : public WorkloadGenerator {
 public:
  /// `m` in [0.5, 1): e.g. 0.8 for the 80:20 distribution.
  HotColdWorkload(uint64_t pages, double m);

  std::string name() const override;
  uint64_t NumPages() const override { return pages_; }
  PageId NextPage(Rng& rng) const override;
  double ExactFrequency(PageId page) const override;

  uint64_t hot_pages() const { return hot_pages_; }

 private:
  uint64_t pages_;
  double m_;
  uint64_t hot_pages_;
  double hot_freq_;   // m / (1-m)
  double cold_freq_;  // (1-m) / m
};

}  // namespace lss

#endif  // LSS_WORKLOAD_GENERATOR_H_
