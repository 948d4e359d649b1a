#include "core/policies/multilog_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/store_shard.h"

namespace lss {

int MultiLogPolicy::BandOf(double period) {
  if (period < 1.0) period = 1.0;
  return static_cast<int>(std::floor(std::log2(period)));
}

uint32_t MultiLogPolicy::LogForBand(int band, uint32_t effective_cap) {
  auto it = band_to_log_.find(band);
  if (it != band_to_log_.end()) return it->second;
  if (band_to_log_.size() < effective_cap) {
    const uint32_t id = static_cast<uint32_t>(log_to_band_.size());
    band_to_log_.emplace(band, id);
    log_to_band_.push_back(band);
    return id;
  }
  // Cap reached: use the log of the nearest existing band.
  auto lo = band_to_log_.lower_bound(band);
  if (lo == band_to_log_.end()) return std::prev(lo)->second;
  if (lo == band_to_log_.begin()) return lo->second;
  auto prev = std::prev(lo);
  return (band - prev->first) <= (lo->first - band) ? prev->second
                                                    : lo->second;
}

uint32_t MultiLogPolicy::PlacementLog(const StoreShard& shard,
                                      PageId page, bool /*is_gc*/,
                                      double upf_estimate) {
  double period;
  if (upf_estimate > 0.0) {
    period = 1.0 / upf_estimate;
  } else {
    // No history: assume the page is of average heat — its expected
    // update period (in this shard's clock ticks) equals the number of
    // user pages *this shard manages*: the page-id range it has seen,
    // divided by the shard count (routing spreads ids evenly).
    const double shard_pages = static_cast<double>(shard.page_id_limit()) /
                               static_cast<double>(shard.num_shards());
    period = std::max<double>(1.0, shard_pages);
  }
  int band = BandOf(period);

  // Damped migration: with the estimate coming from a single update
  // interval (the plain variant), a page steps at most one band per write
  // toward its estimated band. The exact-frequency variant has nothing to
  // smooth and jumps directly.
  if (!opt_) {
    if (page >= page_band_.size()) page_band_.resize(page + 1, kNoBand);
    const int prev = page_band_[page];
    if (prev != kNoBand && band != prev) {
      band = prev + (band > prev ? 1 : -1);
    }
    page_band_[page] = band;
  }

  // Every active log pins open segments, so the log count must stay small
  // relative to the device; tiny test devices get a tighter cap.
  const uint32_t device_cap =
      std::max<uint32_t>(2, shard.config().num_segments / 16);
  return LogForBand(band, std::min(max_logs_, device_cap));
}

void MultiLogPolicy::SelectVictims(const StoreShard& shard,
                                   uint32_t triggering_log,
                                   size_t /*max_victims*/,
                                   std::vector<SegmentId>* out) const {
  // Cleaning candidate per log. Within a log pages have (by construction)
  // similar update frequencies, so the cheapest victim is the oldest
  // segment when the log is homogeneous; with the noisy single-interval
  // estimator homogeneity is imperfect, so prefer the emptiest, breaking
  // ties toward the oldest. (Under the exact oracle and a uniform
  // workload all pages share one log and the oldest *is* the emptiest,
  // reproducing the age-equivalence §6.2.2 describes.)
  const auto& segments = shard.segments();
  std::vector<SegmentId> oldest(log_to_band_.empty() ? 1 : log_to_band_.size(),
                                kInvalidSegment);
  for (SegmentId id = 0; id < segments.size(); ++id) {
    const Segment& s = segments[id];
    if (s.state() != SegmentState::kSealed) continue;
    const uint32_t log = s.log();
    if (log >= oldest.size()) oldest.resize(log + 1, kInvalidSegment);
    if (oldest[log] == kInvalidSegment) {
      oldest[log] = id;
      continue;
    }
    const Segment& cur = segments[oldest[log]];
    if (s.available_bytes() > cur.available_bytes() ||
        (s.available_bytes() == cur.available_bytes() &&
         s.seal_time() < cur.seal_time())) {
      oldest[log] = id;
    }
  }

  // Candidate logs: the triggering log and its two band-neighbours
  // (neighbourhood in band order).
  std::vector<uint32_t> candidates;
  if (triggering_log < log_to_band_.size()) {
    const int band = log_to_band_[triggering_log];
    auto it = band_to_log_.find(band);
    if (it != band_to_log_.end()) {
      candidates.push_back(it->second);
      if (it != band_to_log_.begin()) {
        candidates.push_back(std::prev(it)->second);
      }
      auto next = std::next(it);
      if (next != band_to_log_.end()) candidates.push_back(next->second);
    }
  }

  auto pick_best = [&](const std::vector<uint32_t>& logs) -> SegmentId {
    SegmentId best = kInvalidSegment;
    double best_e = -1.0;
    for (uint32_t log : logs) {
      if (log >= oldest.size() || oldest[log] == kInvalidSegment) continue;
      const double e = segments[oldest[log]].Emptiness();
      if (e > best_e) {
        best_e = e;
        best = oldest[log];
      }
    }
    return best;
  };

  const SegmentId local = pick_best(candidates);
  std::vector<uint32_t> all(oldest.size());
  for (uint32_t i = 0; i < oldest.size(); ++i) all[i] = i;
  const SegmentId global = pick_best(all);

  // Stoica & Ailamaki manage per-log space so a log's local victim is
  // usually a good one. With a shared free pool a cold log can trigger
  // cleaning while its whole neighbourhood is nearly fully live; insisting
  // on the local victim then grinds the store to a halt. Keep the local
  // choice (the algorithm's defining suboptimality) unless it is less than
  // half as empty as the best victim anywhere.
  SegmentId victim = local;
  if (local == kInvalidSegment) {
    victim = global;
  } else if (global != kInvalidSegment &&
             segments[local].Emptiness() <
                 0.5 * segments[global].Emptiness()) {
    victim = global;
  }
  if (victim != kInvalidSegment) out->push_back(victim);
}

}  // namespace lss
