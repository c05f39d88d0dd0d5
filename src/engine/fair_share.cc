#include "engine/fair_share.h"

#include <algorithm>

namespace wlm {
namespace {

constexpr double kEps = 1e-12;

}  // namespace

void FairShare::SetUngrouped() { grouped_ = false; }

void FairShare::SetGroups(const std::vector<const ResourceShares*>& group_of) {
  const size_t n = group_of.size();
  group_key_.clear();
  pooled_.clear();
  group_of_user_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ResourceShares* key = group_of[i];
    size_t g = group_key_.size();
    if (key != nullptr) {
      auto it = std::find_if(pooled_.begin(), pooled_.end(),
                             [key](const auto& p) { return p.first == key; });
      if (it == pooled_.end()) {
        pooled_.emplace_back(key, g);
      } else {
        g = it->second;
      }
    }
    if (g == group_key_.size()) group_key_.push_back(key);
    group_of_user_[i] = g;
  }
  grouped_ = !pooled_.empty();

  // Stable counting sort into the CSR layout: members stay in index order.
  const size_t num_groups = group_key_.size();
  offsets_.assign(num_groups + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offsets_[group_of_user_[i] + 1];
  for (size_t g = 0; g < num_groups; ++g) offsets_[g + 1] += offsets_[g];
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  members_.resize(n);
  for (size_t i = 0; i < n; ++i) members_[cursor_[group_of_user_[i]]++] = i;
}

void FairShare::Split(const std::vector<double>& demands,
                      const std::vector<double>& weights,
                      double ResourceShares::*group_weight, double capacity,
                      std::vector<double>* grants) {
  const size_t n = demands.size();
  grants->resize(n);
  if (!grouped_) {
    // Singleton groups: each group's demand is 0.0 + its user's demand and
    // its grant goes back unchanged, so the split is the identity around
    // one water-fill over the users.
    WaterFill(demands.data(), weights.data(), n, capacity, grants->data());
    return;
  }
  const size_t num_groups = group_key_.size();
  group_demand_.resize(num_groups);
  group_weight_.resize(num_groups);
  group_grant_.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    double demand = 0.0;
    for (size_t k = offsets_[g]; k < offsets_[g + 1]; ++k) {
      demand += demands[members_[k]];
    }
    group_demand_[g] = demand;
    group_weight_[g] = group_key_[g] != nullptr
                           ? group_key_[g]->*group_weight
                           : weights[members_[offsets_[g]]];
  }
  WaterFill(group_demand_.data(), group_weight_.data(), num_groups, capacity,
            group_grant_.data());
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t begin = offsets_[g];
    const size_t size = offsets_[g + 1] - begin;
    if (size == 1) {
      (*grants)[members_[begin]] = group_grant_[g];
      continue;
    }
    member_demand_.resize(size);
    member_weight_.resize(size);
    member_grant_.resize(size);
    for (size_t k = 0; k < size; ++k) {
      member_demand_[k] = demands[members_[begin + k]];
      member_weight_[k] = weights[members_[begin + k]];
    }
    WaterFill(member_demand_.data(), member_weight_.data(), size,
              group_grant_[g], member_grant_.data());
    for (size_t k = 0; k < size; ++k) {
      (*grants)[members_[begin + k]] = member_grant_[k];
    }
  }
}

void FairShare::WaterFill(const double* demands, const double* weights,
                          size_t n, double capacity, double* grants) {
  open_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    grants[i] = 0.0;
    open_[i] = !(demands[i] <= kEps || weights[i] <= kEps);
  }
  while (capacity > kEps) {
    double weight_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (open_[i]) weight_sum += weights[i];
    }
    if (weight_sum <= kEps) break;
    bool any_saturated = false;
    // First pass: saturate users whose fair share covers their demand.
    for (size_t i = 0; i < n; ++i) {
      if (!open_[i]) continue;
      double share = capacity * weights[i] / weight_sum;
      double want = demands[i] - grants[i];
      if (share >= want - kEps) {
        grants[i] += want;
        capacity -= want;
        open_[i] = 0;
        any_saturated = true;
      }
    }
    if (!any_saturated) {
      // Everyone is demand-unsaturated: split proportionally and finish.
      for (size_t i = 0; i < n; ++i) {
        if (!open_[i]) continue;
        grants[i] += capacity * weights[i] / weight_sum;
      }
      break;
    }
  }
}

}  // namespace wlm
