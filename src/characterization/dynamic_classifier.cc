#include "characterization/dynamic_classifier.h"

#include <cassert>

#include "core/workload_manager.h"

namespace wlm {

void WorkloadTypeClassifier::AddTrainingWindow(
    const WorkloadWindowFeatures& features, WorkloadType label) {
  training_.Add(features.ToVector(), static_cast<double>(label));
  trained_ = false;
}

Status WorkloadTypeClassifier::Train() {
  bool has_oltp = false;
  bool has_olap = false;
  for (size_t i = 0; i < training_.size(); ++i) {
    if (training_.target(i) == 0.0) has_oltp = true;
    if (training_.target(i) == 1.0) has_olap = true;
  }
  if (!has_oltp || !has_olap) {
    return Status::FailedPrecondition(
        "need training windows of both workload types");
  }
  model_.Fit(training_);
  trained_ = true;
  return Status::OK();
}

Result<WorkloadType> WorkloadTypeClassifier::Classify(
    const WorkloadWindowFeatures& features) const {
  if (!trained_) return Status::FailedPrecondition("classifier not trained");
  return static_cast<WorkloadType>(model_.PredictClass(features.ToVector()));
}

Result<double> WorkloadTypeClassifier::OlapProbability(
    const WorkloadWindowFeatures& features) const {
  if (!trained_) return Status::FailedPrecondition("classifier not trained");
  std::vector<double> proba = model_.PredictProba(features.ToVector());
  const std::vector<int>& ids = model_.class_ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == static_cast<int>(WorkloadType::kOlap)) return proba[i];
  }
  return 0.0;
}

double WorkloadTypeClassifier::Accuracy(
    const std::vector<WorkloadWindowFeatures>& windows,
    const std::vector<WorkloadType>& labels) const {
  assert(windows.size() == labels.size());
  if (windows.empty() || !trained_) return 0.0;
  int correct = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    Result<WorkloadType> predicted = Classify(windows[i]);
    if (predicted.ok() && *predicted == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(windows.size());
}

LearnedRequestClassifier::LearnedRequestClassifier(DecisionTreeConfig config)
    : tree_(config) {}

void LearnedRequestClassifier::AddExample(const QuerySpec& spec,
                                          const Plan& plan,
                                          const std::string& workload) {
  auto [it, inserted] = label_ids_.try_emplace(
      workload, static_cast<int>(label_names_.size()));
  if (inserted) label_names_.push_back(workload);
  training_.Add(PreExecutionFeatures(spec, plan),
                static_cast<double>(it->second));
}

Status LearnedRequestClassifier::Train() {
  if (training_.empty()) {
    return Status::FailedPrecondition("no training examples");
  }
  tree_.Fit(training_);
  return Status::OK();
}

std::string LearnedRequestClassifier::Classify(const Request& request,
                                               const WorkloadManager& manager) {
  if (!tree_.fitted()) return manager.config().default_workload;
  int label = static_cast<int>(
      tree_.Predict(PreExecutionFeatures(request.spec, request.plan)));
  if (label < 0 || label >= static_cast<int>(label_names_.size())) {
    return manager.config().default_workload;
  }
  return label_names_[static_cast<size_t>(label)];
}

TechniqueInfo LearnedRequestClassifier::info() const {
  TechniqueInfo info;
  info.name = "ML request classifier";
  info.technique_class = TechniqueClass::kWorkloadCharacterization;
  info.subclass = TechniqueSubclass::kDynamicCharacterization;
  info.description =
      "Learns the mapping from pre-execution request features to "
      "workloads from samples and classifies unknown arrivals.";
  info.source = "Elnaffar et al. [19], Tran et al. [73]";
  return info;
}

}  // namespace wlm
