#ifndef WLM_COMMON_STATS_H_
#define WLM_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wlm {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return count_ > 0 ? mean_ * count_ : 0.0; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Records raw samples and answers percentile queries exactly. Workload
/// SLOs in the paper are expressed as averages *and* percentiles ("x% of
/// queries complete in y time units or less"), so exact percentiles matter
/// for attainment accounting. Memory is bounded by reservoir sampling once
/// `max_samples` is exceeded (deterministic, seeded internally from the
/// sample count).
class Percentiles {
 public:
  explicit Percentiles(size_t max_samples = 1 << 20);

  void Add(double x);
  void Reset();

  int64_t count() const { return total_count_; }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  /// p in [0, 100]. Linear interpolation between closest ranks.
  double Percentile(double p) const;
  /// Fraction of samples <= threshold (the paper's "x% within y" check).
  double FractionAtOrBelow(double threshold) const;

 private:
  /// The retained samples in ascending order, re-sorted after an Add.
  const std::vector<double>& Sorted() const;

  size_t max_samples_;
  int64_t total_count_ = 0;
  OnlineStats stats_;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_dirty_ = true;
};

/// Exponentially weighted moving average; the feedback controllers and
/// monitor use this for smoothing noisy per-interval metrics.
class Ewma {
 public:
  /// `alpha` is the weight of the newest observation in (0, 1].
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double x);
  void Reset();

  bool empty() const { return !initialized_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace wlm

#endif  // WLM_COMMON_STATS_H_
