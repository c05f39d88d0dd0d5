// Differential test of FairShare against the engine tick's former
// allocating fair-share code, kept below verbatim as the reference: the
// grants must match bit for bit, with and without group shares.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/fair_share.h"

namespace wlm {
namespace {

// ------------------------------------------------------------- reference

constexpr double kEps = 1e-12;

/// Weighted max-min fair allocation (water-filling): distributes `capacity`
/// across users with `demands` in proportion to `weights`, never granting
/// more than demanded, re-distributing slack from saturated users.
std::vector<double> WeightedWaterFill(const std::vector<double>& demands,
                                      const std::vector<double>& weights,
                                      double capacity) {
  size_t n = demands.size();
  std::vector<double> grants(n, 0.0);
  std::vector<bool> open(n, true);
  for (size_t i = 0; i < n; ++i) {
    if (demands[i] <= kEps || weights[i] <= kEps) open[i] = false;
  }
  while (capacity > kEps) {
    double weight_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (open[i]) weight_sum += weights[i];
    }
    if (weight_sum <= kEps) break;
    bool any_saturated = false;
    // First pass: saturate users whose fair share covers their demand.
    for (size_t i = 0; i < n; ++i) {
      if (!open[i]) continue;
      double share = capacity * weights[i] / weight_sum;
      double want = demands[i] - grants[i];
      if (share >= want - kEps) {
        grants[i] += want;
        capacity -= want;
        open[i] = false;
        any_saturated = true;
      }
    }
    if (!any_saturated) {
      // Everyone is demand-unsaturated: split proportionally and finish.
      for (size_t i = 0; i < n; ++i) {
        if (!open[i]) continue;
        grants[i] += capacity * weights[i] / weight_sum;
      }
      break;
    }
  }
  return grants;
}

using GroupMap = std::unordered_map<std::string, ResourceShares>;

/// One tick's fair-share inputs, indexed like the engine's active queries.
struct Users {
  std::vector<std::string> tags;
  std::vector<double> cpu_demand;
  std::vector<double> io_demand;
  std::vector<double> cpu_weight;
  std::vector<double> io_weight;
};

struct Grants {
  std::vector<double> cpu;
  std::vector<double> io;
};

/// The tick's grouping block and `two_level` split as they were, reading
/// each query's tag from `users.tags` instead of its execution context.
Grants ReferenceTick(const Users& users, const GroupMap& group_shares_,
                     double cpu_capacity, double io_capacity) {
  const std::vector<double>& cpu_demand = users.cpu_demand;
  const std::vector<double>& io_demand = users.io_demand;
  const std::vector<double>& cpu_weight = users.cpu_weight;
  const std::vector<double>& io_weight = users.io_weight;
  const size_t num_users = users.tags.size();

  std::vector<std::vector<size_t>> groups;
  std::vector<double> group_cpu_weight;
  std::vector<double> group_io_weight;
  {
    std::unordered_map<std::string, size_t> tag_group;
    for (size_t i = 0; i < num_users; ++i) {
      const std::string& tag = users.tags[i];
      auto shares_it = group_shares_.find(tag);
      if (shares_it == group_shares_.end()) {
        groups.push_back({i});
        group_cpu_weight.push_back(cpu_weight[i]);
        group_io_weight.push_back(io_weight[i]);
        continue;
      }
      auto [group_it, inserted] = tag_group.try_emplace(tag, groups.size());
      if (inserted) {
        groups.push_back({});
        group_cpu_weight.push_back(shares_it->second.cpu_weight);
        group_io_weight.push_back(shares_it->second.io_weight);
      }
      groups[group_it->second].push_back(i);
    }
  }

  auto two_level = [&](const std::vector<double>& demands,
                       const std::vector<double>& weights,
                       const std::vector<double>& group_weights,
                       double capacity) {
    std::vector<double> group_demand(groups.size(), 0.0);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t i : groups[g]) group_demand[g] += demands[i];
    }
    std::vector<double> group_grant =
        WeightedWaterFill(group_demand, group_weights, capacity);
    std::vector<double> grants(demands.size(), 0.0);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].size() == 1) {
        grants[groups[g][0]] = group_grant[g];
        continue;
      }
      std::vector<double> member_demand, member_weight;
      for (size_t i : groups[g]) {
        member_demand.push_back(demands[i]);
        member_weight.push_back(weights[i]);
      }
      std::vector<double> member_grant =
          WeightedWaterFill(member_demand, member_weight, group_grant[g]);
      for (size_t k = 0; k < groups[g].size(); ++k) {
        grants[groups[g][k]] = member_grant[k];
      }
    }
    return grants;
  };

  Grants out;
  out.cpu = two_level(cpu_demand, cpu_weight, group_cpu_weight, cpu_capacity);
  out.io = two_level(io_demand, io_weight, group_io_weight, io_capacity);
  return out;
}

// ------------------------------------------------------- system under test

/// FairShare driven the way DatabaseEngine::Tick drives it. `fair_share`
/// and `out` are reused across calls, as the engine reuses them.
void FairShareTick(const Users& users, const GroupMap& group_shares,
                   double cpu_capacity, double io_capacity,
                   FairShare* fair_share, Grants* out) {
  if (group_shares.empty()) {
    fair_share->SetUngrouped();
  } else {
    std::vector<const ResourceShares*> group_of;
    for (const std::string& tag : users.tags) {
      auto it = group_shares.find(tag);
      group_of.push_back(it == group_shares.end() ? nullptr : &it->second);
    }
    fair_share->SetGroups(group_of);
  }
  fair_share->Split(users.cpu_demand, users.cpu_weight,
                    &ResourceShares::cpu_weight, cpu_capacity, &out->cpu);
  fair_share->Split(users.io_demand, users.io_weight,
                    &ResourceShares::io_weight, io_capacity, &out->io);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ----------------------------------------------------------- random inputs

/// A weight as the engine sees them: default 1.0, priority-scaled, or down
/// at economic reallocation's 1e-3 clamp; now and then zero, which the
/// water-fill treats as closed.
double DrawWeight(Rng& rng) {
  double u = rng.Uniform01();
  if (u < 0.03) return 0.0;
  if (u < 0.3) return 1.0;
  if (u < 0.45) return 1e-3;
  return rng.Uniform(1e-3, 20.0);
}

/// A per-tick demand: zero for a sleeping or lock-blocked query, else a
/// spread of small and large requests.
double DrawDemand(Rng& rng, double scale) {
  if (rng.Bernoulli(0.2)) return 0.0;
  if (rng.Bernoulli(0.5)) return rng.Uniform(0.0, scale);
  return scale * rng.LogNormal(-1.0, 1.5);
}

/// Capacity relative to total demand: zero, heavily saturated, near the
/// demand, or with slack to spare.
double DrawCapacity(Rng& rng, const std::vector<double>& demands) {
  double total = 0.0;
  for (double d : demands) total += d;
  const double factors[] = {0.0, 0.05, 0.3, 0.9, 1.0, 1.5, 10.0};
  double factor = factors[rng.UniformInt(0, 6)];
  if (total == 0.0) return factor * rng.Uniform(0.0, 1.0);
  return factor * total * rng.Uniform(0.8, 1.2);
}

/// "w3", "q17", ...; built by appending, which sidesteps a GCC 12
/// -Wrestrict false positive on `"w" + std::to_string(n)`.
std::string Tag(char prefix, int64_t n) {
  std::string tag(1, prefix);
  tag += std::to_string(n);
  return tag;
}

struct Case {
  Users users;
  GroupMap group_shares;
  double cpu_capacity = 0.0;
  double io_capacity = 0.0;
};

Case DrawCase(Rng& rng, bool with_groups) {
  Case c;
  size_t n = rng.Bernoulli(0.3) ? static_cast<size_t>(rng.UniformInt(0, 8))
                                : static_cast<size_t>(rng.UniformInt(0, 300));
  // A handful of workload tags; a query outside them gets a tag of its own.
  int64_t num_tags = rng.UniformInt(1, 6);
  double grouped_fraction = rng.Uniform(0.0, 1.0);
  if (with_groups) {
    for (int64_t t = 0; t < num_tags; ++t) {
      if (t > 0 && rng.Bernoulli(0.3)) continue;  // a tag left ungrouped
      c.group_shares[Tag('w', t)] = {DrawWeight(rng), DrawWeight(rng)};
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(grouped_fraction)) {
      c.users.tags.push_back(Tag('w', rng.UniformInt(0, num_tags - 1)));
    } else {
      c.users.tags.push_back(Tag('q', static_cast<int64_t>(i)));
    }
    c.users.cpu_demand.push_back(DrawDemand(rng, 0.05));
    c.users.io_demand.push_back(DrawDemand(rng, 100.0));
    c.users.cpu_weight.push_back(DrawWeight(rng));
    c.users.io_weight.push_back(DrawWeight(rng));
  }
  c.cpu_capacity = DrawCapacity(rng, c.users.cpu_demand);
  c.io_capacity = DrawCapacity(rng, c.users.io_demand);
  return c;
}

void ExpectMatchesReference(const Case& c, FairShare* fair_share,
                            Grants* got) {
  Grants want = ReferenceTick(c.users, c.group_shares, c.cpu_capacity,
                              c.io_capacity);
  FairShareTick(c.users, c.group_shares, c.cpu_capacity, c.io_capacity,
                fair_share, got);
  EXPECT_TRUE(SameBits(want.cpu, got->cpu));
  EXPECT_TRUE(SameBits(want.io, got->io));
}

TEST(FairShareTest, MatchesReferenceBitForBitOnRandomTicks) {
  // One FairShare and one output across every case: reused buffers must
  // not carry state from one tick into the next.
  FairShare fair_share;
  Grants got;
  int grouped_cases = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Each seed runs once without group shares (the singleton layout) and
    // once with them (the two-level layout).
    for (bool with_groups : {false, true}) {
      Case c = DrawCase(rng, with_groups);
      grouped_cases += !c.group_shares.empty();
      ExpectMatchesReference(c, &fair_share, &got);
    }
  }
  EXPECT_GT(grouped_cases, 250);
}

TEST(FairShareTest, MatchesReferenceOnEdgeCases) {
  FairShare fair_share;
  Grants got;
  GroupMap groups = {{"g", {2.0, 0.5}}, {"h", {1e-3, 1e-3}}};
  Case c;
  // No users at all.
  c.cpu_capacity = 4.0;
  c.io_capacity = 100.0;
  ExpectMatchesReference(c, &fair_share, &got);
  c.group_shares = groups;
  ExpectMatchesReference(c, &fair_share, &got);

  // Every demand zero, then capacity zero.
  c.users.tags = {"g", "q1", "g", "h"};
  c.users.cpu_demand = {0.0, 0.0, 0.0, 0.0};
  c.users.io_demand = {0.0, 0.0, 0.0, 0.0};
  c.users.cpu_weight = {1.0, 1.0, 1.0, 1.0};
  c.users.io_weight = {1.0, 1.0, 1.0, 1.0};
  for (const GroupMap& map : {GroupMap{}, groups}) {
    c.group_shares = map;
    ExpectMatchesReference(c, &fair_share, &got);
  }
  c.users.cpu_demand = {0.2, 0.1, 0.05, 0.3};
  c.users.io_demand = {10.0, 0.0, 30.0, 5.0};
  c.cpu_capacity = 0.0;
  c.io_capacity = 0.0;
  for (const GroupMap& map : {GroupMap{}, groups}) {
    c.group_shares = map;
    ExpectMatchesReference(c, &fair_share, &got);
  }

  // One multi-member group holding every user.
  c.users.tags = {"g", "g", "g", "g"};
  c.cpu_capacity = 0.2;
  c.io_capacity = 20.0;
  c.group_shares = groups;
  ExpectMatchesReference(c, &fair_share, &got);
}

TEST(FairShareTest, SingletonLayoutIsOneWaterFill) {
  FairShare fair_share;
  std::vector<double> demands = {0.05, 0.0, 0.2, 0.1};
  std::vector<double> weights = {1.0, 1.0, 3.0, 1e-3};
  std::vector<double> split;
  fair_share.SetUngrouped();
  fair_share.Split(demands, weights, &ResourceShares::cpu_weight, 0.3,
                   &split);
  EXPECT_TRUE(SameBits(split, WeightedWaterFill(demands, weights, 0.3)));
  // Users 0 and 2 saturate at their demands in the first round; the slack
  // then goes to the 1e-3-weight user, still below its demand.
  EXPECT_EQ(split[0], 0.05);
  EXPECT_EQ(split[1], 0.0);
  EXPECT_EQ(split[2], 0.2);
  EXPECT_NEAR(split[3], 0.05, 1e-12);
}

}  // namespace
}  // namespace wlm
