#include "workload/generator.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace lss {

HotColdWorkload::HotColdWorkload(uint64_t pages, double m)
    : pages_(pages), m_(m) {
  assert(pages >= 2);
  assert(m >= 0.5 && m < 1.0);
  hot_pages_ = static_cast<uint64_t>(std::llround((1.0 - m) *
                                                  static_cast<double>(pages)));
  if (hot_pages_ == 0) hot_pages_ = 1;
  if (hot_pages_ >= pages_) hot_pages_ = pages_ - 1;
  // Normalised so the population mean is 1: a hot page gets fraction m of
  // updates spread over (1-m) of the pages.
  hot_freq_ = m * static_cast<double>(pages_) / static_cast<double>(hot_pages_);
  cold_freq_ = (1.0 - m) * static_cast<double>(pages_) /
               static_cast<double>(pages_ - hot_pages_);
}

std::string HotColdWorkload::name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "hot-cold %d-%d",
                static_cast<int>(std::llround(m_ * 100)),
                static_cast<int>(std::llround((1.0 - m_) * 100)));
  return buf;
}

PageId HotColdWorkload::NextPage(Rng& rng) const {
  if (rng.NextBool(m_)) {
    return rng.NextBounded(hot_pages_);
  }
  return hot_pages_ + rng.NextBounded(pages_ - hot_pages_);
}

double HotColdWorkload::ExactFrequency(PageId page) const {
  return page < hot_pages_ ? hot_freq_ : cold_freq_;
}

}  // namespace lss
