#include "common/time_series.h"

namespace wlm {

void TimeSeries::Record(double time, double value) {
  points_.push_back({time, value});
  stats_.Add(value);
}

void TimeSeries::Clear() {
  points_.clear();
  stats_.Reset();
}

double TimeSeries::MeanInWindow(double t_begin, double t_end) const {
  OnlineStats window;
  for (const TimePoint& p : points_) {
    if (p.time >= t_begin && p.time < t_end) window.Add(p.value);
  }
  return window.mean();
}

double TimeSeries::SettlingTime(double lo, double hi) const {
  double settle = -1.0;
  for (const TimePoint& p : points_) {
    bool inside = p.value >= lo && p.value <= hi;
    if (inside) {
      if (settle < 0.0) settle = p.time;
    } else {
      settle = -1.0;
    }
  }
  return settle;
}

}  // namespace wlm
