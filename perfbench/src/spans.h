#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Host-clock spans recorded around the harness's calls into the library,
// plus thin forwarding decorators for the four controller interfaces.
// A decorator forwards every call and info() unchanged, so a traced run
// makes exactly the decisions of an untraced one; it only adds a span
// (and a few counters) around each call.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/interfaces.h"

namespace perfbench {

/// Span kinds, one per layer boundary the harness can reach from outside.
/// The numeric values are the on-disk codes; SPAN_NAMES in summarize.py
/// names them in this order.
enum class SpanName : uint8_t {
  kStep = 0,              // Simulation::RunUntil of one fixed step
  kCoreSubmit = 1,        // WorkloadManager::Submit
  kClusterSubmit = 2,     // ClusterDispatcher::Submit
  kClassify = 3,          // RequestClassifier::Classify
  kOnArrival = 4,         // AdmissionController::OnArrival
  kAllowDispatch = 5,     // AdmissionController::AllowDispatch
  kAdmissionSample = 6,   // AdmissionController::OnSample
  kOrder = 7,             // Scheduler::Order
  kConcurrencyLimit = 8,  // Scheduler::ConcurrencyLimit
  kSchedulerSample = 9,   // Scheduler::OnSample
  kExecutionSample = 10,  // ExecutionController::OnSample
};

/// Counts the decorators take where the work happens, so ratios are
/// measured at the boundary rather than inferred.
struct LayerCounters {
  int64_t arrivals_accepted = 0;   // OnArrival calls that returned OK
  int64_t order_input_total = 0;   // sum of queued.size() over Order calls
};

/// In-memory span store. Spans nest through an explicit stack of open
/// spans, so each record knows the span that caused it. Nothing is
/// written until WriteTo, after the timed phase.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(size_t reserve);

  int32_t Begin(SpanName name, uint64_t query) {
    const int32_t index = static_cast<int32_t>(names_.size());
    names_.push_back(static_cast<uint8_t>(name));
    parents_.push_back(open_.empty() ? -1 : open_.back());
    queries_.push_back(query);
    starts_.push_back(Now());
    ends_.push_back(0);
    open_.push_back(index);
    return index;
  }
  void End(int32_t index) {
    ends_[static_cast<size_t>(index)] = Now();
    open_.pop_back();
  }
  /// Nanoseconds since the recorder was created.
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  LayerCounters& counters() { return counters_; }
  const LayerCounters& counters() const { return counters_; }

  /// Columnar little-endian dump: a header line, then the name, parent,
  /// query, start and end columns back to back. Returns false on I/O
  /// failure.
  bool WriteTo(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<uint8_t> names_;
  std::vector<int32_t> parents_;
  std::vector<uint64_t> queries_;
  std::vector<int64_t> starts_;
  std::vector<int64_t> ends_;
  std::vector<int32_t> open_;
  LayerCounters counters_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name, uint64_t query)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// Each Wrap* returns `inner` unchanged when `recorder` is null, else a
/// forwarding decorator that records a span around every call.
std::unique_ptr<wlm::RequestClassifier> WrapClassifier(
    std::unique_ptr<wlm::RequestClassifier> inner, SpanRecorder* recorder);
std::unique_ptr<wlm::AdmissionController> WrapAdmission(
    std::unique_ptr<wlm::AdmissionController> inner, SpanRecorder* recorder);
std::unique_ptr<wlm::Scheduler> WrapScheduler(
    std::unique_ptr<wlm::Scheduler> inner, SpanRecorder* recorder);
std::unique_ptr<wlm::ExecutionController> WrapExecution(
    std::unique_ptr<wlm::ExecutionController> inner, SpanRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
