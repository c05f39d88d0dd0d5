#include "control/controllers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm {

PiController::PiController(double kp, double ki, double out_min,
                           double out_max)
    : kp_(kp), ki_(ki), out_min_(out_min), out_max_(out_max) {
  assert(out_min_ <= out_max_);
}

double PiController::Update(double error, double dt) {
  double candidate_integral = integral_ + error * dt;
  double unclamped = kp_ * error + ki_ * candidate_integral;
  output_ = std::clamp(unclamped, out_min_, out_max_);
  // Anti-windup: only integrate when not pushing further into saturation.
  bool saturated_high = unclamped > out_max_ && error > 0.0;
  bool saturated_low = unclamped < out_min_ && error < 0.0;
  if (!saturated_high && !saturated_low) integral_ = candidate_integral;
  return output_;
}

void PiController::Reset() {
  integral_ = 0.0;
  output_ = 0.0;
}

DiminishingStepController::DiminishingStepController(double initial_step,
                                                     double out_min,
                                                     double out_max,
                                                     double min_step)
    : initial_step_(initial_step),
      step_(initial_step),
      out_min_(out_min),
      out_max_(out_max),
      min_step_(min_step) {
  assert(out_min_ <= out_max_);
  output_ = out_min_;
}

double DiminishingStepController::Update(double error, double deadband) {
  if (std::abs(error) <= deadband) return output_;
  int direction = error > 0.0 ? 1 : -1;
  if (last_direction_ != 0 && direction != last_direction_) {
    step_ = std::max(min_step_, step_ * 0.5);
  }
  last_direction_ = direction;
  output_ = std::clamp(output_ + direction * step_, out_min_, out_max_);
  return output_;
}

void DiminishingStepController::Reset() {
  step_ = initial_step_;
  output_ = out_min_;
  last_direction_ = 0;
}

BlackBoxLinearController::BlackBoxLinearController(double out_min,
                                                   double out_max,
                                                   double probe_step,
                                                   size_t window)
    : out_min_(out_min),
      out_max_(out_max),
      probe_step_(probe_step),
      window_(window) {
  assert(out_min_ <= out_max_);
  output_ = out_min_;
}

void BlackBoxLinearController::FitModel() {
  ready_ = false;
  if (observations_.size() < 2) return;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double n = static_cast<double>(observations_.size());
  for (const auto& [x, y] : observations_) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double denom = n * sxx - sx * sx;
  // Need genuinely distinct outputs for an invertible model.
  if (std::abs(denom) < 1e-9) return;
  slope_ = (n * sxy - sx * sy) / denom;
  intercept_ = (sy - slope_ * sx) / n;
  if (std::abs(slope_) < 1e-9) return;
  ready_ = true;
}

double BlackBoxLinearController::Update(double measurement, double goal) {
  observations_.emplace_back(output_, measurement);
  while (observations_.size() > window_) observations_.pop_front();
  FitModel();
  if (ready_) {
    output_ = std::clamp((goal - intercept_) / slope_, out_min_, out_max_);
  } else {
    // Probe: walk the output to expose the system's response.
    double next = output_ + probe_direction_ * probe_step_;
    if (next > out_max_ || next < out_min_) {
      probe_direction_ = -probe_direction_;
      next = output_ + probe_direction_ * probe_step_;
    }
    output_ = std::clamp(next, out_min_, out_max_);
  }
  return output_;
}

void BlackBoxLinearController::Reset() {
  observations_.clear();
  output_ = out_min_;
  ready_ = false;
  probe_direction_ = 1;
}

}  // namespace wlm
