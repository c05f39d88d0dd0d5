#ifndef WLM_ML_KNN_H_
#define WLM_ML_KNN_H_

#include <cstddef>
#include <vector>

#include "ml/dataset.h"

namespace wlm {

/// k-nearest-neighbour regressor over z-score-normalized features. This is
/// the stand-in for Ganapathi et al.'s KCCA performance predictor [21]:
/// "queries with similar pre-execution properties behave similarly" —
/// predictions are the (distance-weighted) mean of the k nearest training
/// queries' observed metrics.
class KnnRegressor {
 public:
  explicit KnnRegressor(int k = 5, bool distance_weighted = true);

  void Fit(const Dataset& data);
  bool fitted() const { return !train_.empty(); }

  double Predict(const std::vector<double>& features) const;

 private:
  struct Row {
    std::vector<double> z;  // normalized features
    double target;
  };

  std::vector<double> Normalize(const std::vector<double>& features) const;

  int k_;
  bool distance_weighted_;
  std::vector<Row> train_;
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

/// Gaussian naive Bayes classifier; the dynamic workload-type classifier
/// [19][73] uses it to identify OLTP vs BI behaviour from monitor windows.
class NaiveBayes {
 public:
  NaiveBayes() = default;

  /// Targets must be small non-negative integer class ids.
  void Fit(const Dataset& data);
  bool fitted() const { return !classes_.empty(); }

  int PredictClass(const std::vector<double>& features) const;
  /// Posterior probability of each class id (indexed by position in
  /// `class_ids()`).
  std::vector<double> PredictProba(const std::vector<double>& features) const;
  const std::vector<int>& class_ids() const { return classes_; }

 private:
  struct ClassModel {
    double log_prior = 0.0;
    std::vector<double> means;
    std::vector<double> variances;
  };

  std::vector<int> classes_;
  std::vector<ClassModel> models_;
};

}  // namespace wlm

#endif  // WLM_ML_KNN_H_
