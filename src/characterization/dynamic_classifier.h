#ifndef WLM_CHARACTERIZATION_DYNAMIC_CLASSIFIER_H_
#define WLM_CHARACTERIZATION_DYNAMIC_CLASSIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "characterization/features.h"
#include "common/result.h"
#include "core/interfaces.h"
#include "ml/knn.h"
#include "ml/decision_tree.h"

namespace wlm {

/// Coarse workload types the dynamic classifier recognizes.
enum class WorkloadType { kOltp = 0, kOlap = 1 };

/// Dynamic workload characterization (Elnaffar et al. [19], Tran et al.
/// [73]): learns the signature of known workload types from sample
/// windows and identifies what type of workload is currently present on
/// the server. Gaussian naive Bayes over window features.
class WorkloadTypeClassifier {
 public:
  WorkloadTypeClassifier() = default;

  void AddTrainingWindow(const WorkloadWindowFeatures& features,
                         WorkloadType label);
  /// Fits the model; fails without at least one window of each type.
  Status Train();
  bool trained() const { return trained_; }

  Result<WorkloadType> Classify(const WorkloadWindowFeatures& features) const;
  /// P(OLAP) for a window — a soft "how analytical is the current mix".
  Result<double> OlapProbability(const WorkloadWindowFeatures& features) const;

  /// Convenience: fraction of `windows` classified correctly.
  double Accuracy(const std::vector<WorkloadWindowFeatures>& windows,
                  const std::vector<WorkloadType>& labels) const;

 private:
  Dataset training_{WorkloadWindowFeatures::Names()};
  NaiveBayes model_;
  bool trained_ = false;
};

/// Per-request learned router: trains a decision tree on pre-execution
/// features of historical requests labeled with the workload they belong
/// to, then classifies arrivals — dynamic characterization applied at the
/// request level (the "workload classifier" the paper describes building
/// from sample workloads).
class LearnedRequestClassifier : public RequestClassifier {
 public:
  explicit LearnedRequestClassifier(DecisionTreeConfig config = {});

  void AddExample(const QuerySpec& spec, const Plan& plan,
                  const std::string& workload);
  Status Train();
  bool trained() const { return tree_.fitted(); }

  std::string Classify(const Request& request,
                       const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  Dataset training_{PreExecutionFeatureNames()};
  DecisionTree tree_;
  std::vector<std::string> label_names_;
  std::map<std::string, int> label_ids_;
};

}  // namespace wlm

#endif  // WLM_CHARACTERIZATION_DYNAMIC_CLASSIFIER_H_
