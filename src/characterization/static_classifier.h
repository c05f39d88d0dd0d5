#ifndef WLM_CHARACTERIZATION_STATIC_CLASSIFIER_H_
#define WLM_CHARACTERIZATION_STATIC_CLASSIFIER_H_

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/interfaces.h"

namespace wlm {

/// One static workload-definition rule: request properties ("who" —
/// origin attributes; "what" — statement type / kind / predictive cost
/// elements) that map matching requests to a workload. Unset fields are
/// wildcards. This is the commercial facilities' identification mechanism
/// (DB2 workloads + work classes, Teradata classification criteria).
struct ClassificationRule {
  std::string workload;

  // "who": origin / connection attributes.
  std::optional<std::string> application;
  std::optional<std::string> user;
  std::optional<std::string> client_ip;

  // "what": type of work.
  std::optional<StatementType> stmt;
  std::optional<QueryKind> kind;

  // Predictive elements (DB2 work classes: "all queries with estimated
  // cost over N timerons / estimated rows over M").
  double min_est_timerons = 0.0;
  double max_est_timerons = std::numeric_limits<double>::infinity();
  double min_est_rows = 0.0;
  double max_est_rows = std::numeric_limits<double>::infinity();

  bool Matches(const Request& request) const;
};

/// Static workload characterization: ordered rules plus SQL-Server-style
/// user-written criteria functions (evaluated before the rules). First
/// match wins; otherwise the manager's default workload.
class StaticClassifier : public RequestClassifier {
 public:
  /// A criteria function returns the workload name or nullopt to pass.
  using CriteriaFunction =
      std::function<std::optional<std::string>(const Request&)>;

  StaticClassifier() = default;

  void AddRule(ClassificationRule rule);
  void AddCriteriaFunction(CriteriaFunction fn);

  std::string Classify(const Request& request,
                       const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  std::vector<CriteriaFunction> criteria_;
  std::vector<ClassificationRule> rules_;
};

}  // namespace wlm

#endif  // WLM_CHARACTERIZATION_STATIC_CLASSIFIER_H_
