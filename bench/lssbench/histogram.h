#ifndef LSSBENCH_HISTOGRAM_H_
#define LSSBENCH_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace lssbench {

/// Log-bucketed, mergeable latency histogram in the style of Tene's
/// HdrHistogram. Values (nanoseconds) below 256 get one bucket each; above
/// that every power-of-two range [2^k, 2^(k+1)) is split into 128 equal
/// buckets, so a bucket is never wider than 1/128 of its lower bound and
/// a quantile is off by less than one bucket width: under 1 % for values
/// of 100 ns and more. Recording is a count-leading-zeros, a shift and an
/// add; one histogram per client thread, merged after the threads join.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 128
  static constexpr uint64_t kLinear = 2 * kSub;              // 256
  static constexpr size_t kBuckets = kLinear + (64 - 8) * kSub;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
    max_ = std::max(max_, ns);
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank quantile: the ceil(q * count)-th smallest sample (the
  /// smallest for q = 0), placed inside its bucket by its rank among the
  /// bucket's samples. 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double want = q * static_cast<double>(count_);
    uint64_t rank = static_cast<uint64_t>(want);
    if (static_cast<double>(rank) < want) ++rank;
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        const double v = static_cast<double>(LowerBound(i)) +
                         within * static_cast<double>(Width(i));
        return std::min(v, static_cast<double>(max_));
      }
      seen += counts_[i];
    }
    return static_cast<double>(max_);
  }

  static size_t Index(uint64_t v) {
    if (v < kLinear) return static_cast<size_t>(v);
    const int k = 63 - __builtin_clzll(v);  // >= 8
    const int shift = k - kSubBits;
    const uint64_t mantissa = v >> shift;  // in [kSub, 2 * kSub)
    return static_cast<size_t>(kLinear + (k - 8) * kSub + (mantissa - kSub));
  }

  static uint64_t LowerBound(size_t i) {
    if (i < kLinear) return i;
    const size_t k = (i - kLinear) / kSub + 8;
    const uint64_t mantissa = (i - kLinear) % kSub + kSub;
    return mantissa << (k - kSubBits);
  }

  static uint64_t Width(size_t i) {
    if (i < kLinear) return 1;
    const size_t k = (i - kLinear) / kSub + 8;
    return uint64_t{1} << (k - kSubBits);
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

/// Median of a non-empty sample (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile `q` of a sample: its ceil(q * n)-th smallest
/// value (0 when empty).
inline double SampleQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double want = q * static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(want);
  if (static_cast<double>(rank) < want) ++rank;
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Latencies of one kind of call: a whole-run histogram, plus the exact
/// nearest-rank quantiles of every consecutive batch of `batch` samples.
/// A reported percentile is the median over batches of the batch's
/// percentile, so a few seconds of contention from other tenants of the
/// host move it only if they cover half the run. A batch must hold at
/// least ten samples beyond its highest quantile.
class BatchedLatency {
 public:
  BatchedLatency(size_t batch, std::vector<double> quantiles)
      : batch_(batch),
        quantiles_(std::move(quantiles)),
        per_batch_(quantiles_.size()) {
    current_.reserve(batch_);
  }

  /// True when this sample completed a batch (whose quantiles were just
  /// computed, so the caller may want to re-read its clock).
  bool Record(uint64_t ns) {
    all_.Record(ns);
    current_.push_back(ns);
    if (current_.size() < batch_) return false;
    for (size_t i = 0; i < quantiles_.size(); ++i) {
      const double want = quantiles_[i] * static_cast<double>(batch_);
      size_t rank = static_cast<size_t>(want);
      if (static_cast<double>(rank) < want) ++rank;
      rank = std::clamp<size_t>(rank, 1, batch_);
      std::nth_element(current_.begin(), current_.begin() + (rank - 1),
                       current_.end());
      per_batch_[i].push_back(static_cast<double>(current_[rank - 1]));
    }
    current_.clear();
    return true;
  }

  /// Adds another thread's complete batches and samples.
  void Merge(const BatchedLatency& other) {
    all_.Merge(other.all_);
    for (size_t i = 0; i < quantiles_.size(); ++i) {
      per_batch_[i].insert(per_batch_[i].end(), other.per_batch_[i].begin(),
                           other.per_batch_[i].end());
    }
  }

  /// Median over complete batches of quantile `quantiles[i]`; the
  /// whole-run quantile when no batch completed.
  double Quantile(size_t i) const {
    if (per_batch_[i].empty()) return all_.Quantile(quantiles_[i]);
    return Median(per_batch_[i]);
  }

  size_t batches() const {
    return per_batch_.empty() ? 0 : per_batch_[0].size();
  }
  const LatencyHistogram& all() const { return all_; }

 private:
  size_t batch_;
  std::vector<double> quantiles_;
  std::vector<std::vector<double>> per_batch_;
  LatencyHistogram all_;
  std::vector<uint64_t> current_;
};

}  // namespace lssbench

#endif  // LSSBENCH_HISTOGRAM_H_
