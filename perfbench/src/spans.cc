#include "spans.h"

#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(size_t reserve) : epoch_(Clock::now()) {
  names_.reserve(reserve);
  parents_.reserve(reserve);
  queries_.reserve(reserve);
  starts_.reserve(reserve);
  ends_.reserve(reserve);
}

namespace {

template <typename T>
bool WriteColumn(std::FILE* file, const std::vector<T>& column) {
  return column.empty() ||
         std::fwrite(column.data(), sizeof(T), column.size(), file) ==
             column.size();
}

}  // namespace

bool SpanRecorder::WriteTo(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok =
      std::fprintf(file, "wlm-perfbench-spans 1 %zu\n", names_.size()) > 0;
  ok = ok && WriteColumn(file, names_) && WriteColumn(file, parents_) &&
       WriteColumn(file, queries_) && WriteColumn(file, starts_) &&
       WriteColumn(file, ends_);
  return std::fclose(file) == 0 && ok;
}

namespace {

using wlm::Request;
using wlm::Status;
using wlm::SystemIndicators;
using wlm::TechniqueInfo;
using wlm::WorkloadManager;

class TracedClassifier : public wlm::RequestClassifier {
 public:
  TracedClassifier(std::unique_ptr<wlm::RequestClassifier> inner,
                   SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  std::string Classify(const Request& request,
                       const WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kClassify, request.spec.id);
    return inner_->Classify(request, manager);
  }
  TechniqueInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<wlm::RequestClassifier> inner_;
  SpanRecorder* recorder_;
};

class TracedAdmission : public wlm::AdmissionController {
 public:
  TracedAdmission(std::unique_ptr<wlm::AdmissionController> inner,
                  SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  Status OnArrival(const Request& request,
                   const WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kOnArrival, request.spec.id);
    Status status = inner_->OnArrival(request, manager);
    if (status.ok()) ++recorder_->counters().arrivals_accepted;
    return status;
  }
  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kAllowDispatch, request.spec.id);
    return inner_->AllowDispatch(request, manager);
  }
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kAdmissionSample, 0);
    inner_->OnSample(indicators, manager);
  }
  TechniqueInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<wlm::AdmissionController> inner_;
  SpanRecorder* recorder_;
};

class TracedScheduler : public wlm::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<wlm::Scheduler> inner,
                  SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  std::vector<wlm::QueryId> Order(const std::vector<const Request*>& queued,
                                  const WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kOrder, 0);
    recorder_->counters().order_input_total +=
        static_cast<int64_t>(queued.size());
    return inner_->Order(queued, manager);
  }
  int ConcurrencyLimit(const WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kConcurrencyLimit, 0);
    return inner_->ConcurrencyLimit(manager);
  }
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kSchedulerSample, 0);
    inner_->OnSample(indicators, manager);
  }
  TechniqueInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<wlm::Scheduler> inner_;
  SpanRecorder* recorder_;
};

class TracedExecution : public wlm::ExecutionController {
 public:
  TracedExecution(std::unique_ptr<wlm::ExecutionController> inner,
                  SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override {
    ScopedSpan span(recorder_, SpanName::kExecutionSample, 0);
    inner_->OnSample(indicators, manager);
  }
  TechniqueInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<wlm::ExecutionController> inner_;
  SpanRecorder* recorder_;
};

}  // namespace

std::unique_ptr<wlm::RequestClassifier> WrapClassifier(
    std::unique_ptr<wlm::RequestClassifier> inner, SpanRecorder* recorder) {
  if (recorder == nullptr) return inner;
  return std::make_unique<TracedClassifier>(std::move(inner), recorder);
}

std::unique_ptr<wlm::AdmissionController> WrapAdmission(
    std::unique_ptr<wlm::AdmissionController> inner, SpanRecorder* recorder) {
  if (recorder == nullptr) return inner;
  return std::make_unique<TracedAdmission>(std::move(inner), recorder);
}

std::unique_ptr<wlm::Scheduler> WrapScheduler(
    std::unique_ptr<wlm::Scheduler> inner, SpanRecorder* recorder) {
  if (recorder == nullptr) return inner;
  return std::make_unique<TracedScheduler>(std::move(inner), recorder);
}

std::unique_ptr<wlm::ExecutionController> WrapExecution(
    std::unique_ptr<wlm::ExecutionController> inner, SpanRecorder* recorder) {
  if (recorder == nullptr) return inner;
  return std::make_unique<TracedExecution>(std::move(inner), recorder);
}

}  // namespace perfbench
