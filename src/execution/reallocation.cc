#include "execution/reallocation.h"

#include <algorithm>
#include <cassert>

#include "core/workload_manager.h"

namespace wlm {

EconomicReallocationController::EconomicReallocationController(Config config)
    : config_(std::move(config)) {}

Status EconomicReallocationController::SetWealth(const std::string& workload,
                                                 double wealth) {
  if (wealth <= 0.0) return Status::InvalidArgument("wealth must be positive");
  for (Participant& p : config_.participants) {
    if (p.workload == workload) {
      p.wealth = wealth;
      return Status::OK();
    }
  }
  return Status::NotFound("unknown participant workload");
}

ResourceAllocation EconomicReallocationController::LastAllocation(
    const std::string& workload) const {
  auto it = last_.find(workload);
  return it == last_.end() ? ResourceAllocation{} : it->second;
}

void EconomicReallocationController::OnSample(
    const SystemIndicators& indicators, WorkloadManager& manager) {
  (void)indicators;
  // Every configured participant always bids: a bursty workload that is
  // momentarily idle must not forfeit its allocation to whoever happens
  // to be running (its next arrival dispatches with these shares).
  std::vector<WorkloadBid> bids;
  bids.reserve(config_.participants.size());
  for (const Participant& p : config_.participants) {
    bids.push_back(WorkloadBid{p.wealth, p.alpha_cpu, p.alpha_io});
  }
  std::vector<ResourceAllocation> equilibrium = EconomicEquilibrium(bids);

  // The equilibrium is a *workload-level* allocation: install it as engine
  // group shares (two-level fair sharing), so the workload as a whole owns
  // its share no matter how many of its queries run or block.
  for (size_t i = 0; i < config_.participants.size(); ++i) {
    const Participant& p = config_.participants[i];
    last_[p.workload] = equilibrium[i];
    ResourceShares shares;
    shares.cpu_weight =
        std::max(1e-3, equilibrium[i].cpu_share * config_.weight_scale);
    shares.io_weight =
        std::max(1e-3, equilibrium[i].io_share * config_.weight_scale);
    // Both weights are clamped positive above, which is all SetGroupShares
    // checks.
    Status status = manager.engine()->SetGroupShares(p.workload, shares);
    assert(status.ok());
    (void)status;
  }
}

TechniqueInfo EconomicReallocationController::info() const {
  TechniqueInfo info;
  info.name = "Economic resource reallocation";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kReprioritization;
  info.description =
      "Allocates CPU/IO shares among competing workloads as the market "
      "equilibrium of wealth (business importance) driven bidding, "
      "re-run every control interval.";
  info.source = "Boughton et al. [4], Martin et al. [46], Zhang et al. [78]";
  return info;
}

}  // namespace wlm
