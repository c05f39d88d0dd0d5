#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Reset() { *this = OnlineStats(); }

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Percentiles::Percentiles(size_t max_samples) : max_samples_(max_samples) {
  assert(max_samples_ > 0);
}

void Percentiles::Add(double x) {
  stats_.Add(x);
  ++total_count_;
  if (samples_.size() < max_samples_) {
    samples_.push_back(x);
  } else {
    // Vitter's Algorithm R with a deterministic LCG keyed off the count so
    // results are reproducible without threading an Rng through.
    uint64_t r = static_cast<uint64_t>(total_count_) * 6364136223846793005ULL +
                 1442695040888963407ULL;
    uint64_t slot = r % static_cast<uint64_t>(total_count_);
    if (slot < samples_.size()) samples_[slot] = x;
  }
  sorted_dirty_ = true;
}

void Percentiles::Reset() {
  total_count_ = 0;
  stats_.Reset();
  samples_.clear();
  sorted_.clear();
  sorted_dirty_ = true;
}

const std::vector<double>& Percentiles::Sorted() const {
  if (sorted_dirty_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_dirty_ = false;
  }
  return sorted_;
}

double Percentiles::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  const std::vector<double>& sorted = Sorted();
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Percentiles::FractionAtOrBelow(double threshold) const {
  if (samples_.empty()) return 0.0;
  const std::vector<double>& sorted = Sorted();
  auto it = std::upper_bound(sorted.begin(), sorted.end(), threshold);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

void Ewma::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

void Ewma::Reset() {
  value_ = 0.0;
  initialized_ = false;
}

}  // namespace wlm
