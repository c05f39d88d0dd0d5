#ifndef WLM_ENGINE_FAIR_SHARE_H_
#define WLM_ENGINE_FAIR_SHARE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/execution.h"

namespace wlm {

/// Weighted max-min fair division of one tick's capacity among users, in
/// two levels: across *groups* first, then within each group across its
/// members. A user with no group shares is a singleton group weighted by
/// its own weight.
///
/// Every buffer is owned and reused, so steady-state calls do not
/// allocate. The arithmetic (iteration and summation order) is fixed:
/// users in index order, groups in order of first appearance, members in
/// index order. When every user is a singleton group the split is exactly
/// a one-level water-fill over the users and runs as one.
class FairShare {
 public:
  /// Layout in which every user is its own group.
  void SetUngrouped();
  /// Lays users out into groups: `group_of[i]` is nullptr for ungrouped
  /// user i, else the shares of its pooled group. Users passing the same
  /// pointer pool into one group.
  void SetGroups(const std::vector<const ResourceShares*>& group_of);

  /// Divides `capacity` under the current layout: group weights come from
  /// the pooled group's `group_weight` field (a singleton uses its user's
  /// own weight). Writes one grant per user into `*grants`.
  void Split(const std::vector<double>& demands,
             const std::vector<double>& weights,
             double ResourceShares::*group_weight, double capacity,
             std::vector<double>* grants);

 private:
  /// One-level weighted max-min fair allocation (water-filling): divides
  /// `capacity` across `n` users in proportion to `weights`, never granting
  /// more than demanded, and re-distributes slack from saturated users.
  /// Writes `grants[0..n)`.
  void WaterFill(const double* demands, const double* weights, size_t n,
                 double capacity, double* grants);

  // False while every user is a singleton group: Split is then one
  // water-fill over the users.
  bool grouped_ = false;
  // CSR layout: group g's members are members_[offsets_[g]..offsets_[g+1]),
  // and group_key_[g] is its shares (nullptr for a singleton).
  std::vector<const ResourceShares*> group_key_;
  std::vector<size_t> offsets_;
  std::vector<size_t> members_;
  // Layout-building scratch: each user's group, the pooled groups seen so
  // far (key, group), and the CSR fill cursor.
  std::vector<size_t> group_of_user_;
  std::vector<std::pair<const ResourceShares*, size_t>> pooled_;
  std::vector<size_t> cursor_;
  std::vector<double> group_demand_;
  std::vector<double> group_weight_;
  std::vector<double> group_grant_;
  std::vector<double> member_demand_;
  std::vector<double> member_weight_;
  std::vector<double> member_grant_;
  std::vector<unsigned char> open_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_FAIR_SHARE_H_
