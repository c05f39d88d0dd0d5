// Differential test of LockManager against its former allocating
// implementation, kept below verbatim as the reference (only renamed).
// Random operation sequences drive both in lockstep, the way the engine
// does: each transaction runs a script of lock requests, resumed from the
// grant callback when a queued request is granted. Every decision must
// match exactly; hold-time sums only to rounding, since the recycled lists
// add in grant order rather than hash-bucket order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <iostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "engine/lock_manager.h"

namespace wlm {
// A named namespace, not an anonymous one: the reference keeps its unused
// HeldExclusive helper verbatim, which -Wunused-function would reject.
namespace reference {

// ------------------------------------------------------------- reference

/// Strict two-phase locking lock table with FIFO grant queues, wait-for
/// graph deadlock detection and the Moenkeberg & Weikum conflict-ratio
/// metric [56] that the conflict-ratio admission controller thresholds on.
class ReferenceLockManager {
 public:
  /// Called when a previously queued request is granted.
  using GrantCallback = std::function<void(TxnId, LockKey)>;

  ReferenceLockManager() = default;
  ReferenceLockManager(const ReferenceLockManager&) = delete;
  ReferenceLockManager& operator=(const ReferenceLockManager&) = delete;

  void set_grant_callback(GrantCallback cb) { grant_cb_ = std::move(cb); }

  /// Clock used to timestamp grants for hold-time attribution. Without
  /// one (direct unit-test usage) grants are untimed and HeldSeconds
  /// reports 0.
  void set_time_source(std::function<double()> now) {
    time_source_ = std::move(now);
  }

  /// Requests `key` in `mode` for `txn`. Returns true if granted
  /// immediately; false if the request was queued (the grant callback fires
  /// later). Re-acquiring a held key (same or weaker mode) is a no-op grant;
  /// upgrade shared->exclusive is supported and queues if other holders
  /// exist.
  [[nodiscard]] bool Acquire(TxnId txn, LockKey key, LockMode mode);

  /// Releases everything `txn` holds and cancels its queued requests,
  /// granting any newly compatible waiters.
  void ReleaseAll(TxnId txn);

  /// True if `txn` currently waits on some key.
  [[nodiscard]] bool IsBlocked(TxnId txn) const;

  /// Detects wait-for cycles. Returns one victim per cycle, chosen as the
  /// youngest (largest id) transaction in the cycle. The caller aborts the
  /// victims (via ReleaseAll plus its own bookkeeping).
  std::vector<TxnId> FindDeadlockVictims() const;

  /// Moenkeberg & Weikum conflict ratio: (#locks held by all transactions)
  /// / (#locks held by transactions that are not blocked). 1.0 when nothing
  /// is blocked; rising past ~1.3 signals lock thrashing.
  double ConflictRatio() const;

  /// Sum over `txn`'s held locks of (now - grant time): the lock-hold
  /// footprint it currently imposes. 0 without a time source.
  double HeldSeconds(TxnId txn, double now) const;

  /// Counters for the monitor.
  size_t total_locks_held() const;
  size_t blocked_txn_count() const;
  size_t txn_count() const { return txn_locks_.size(); }
  uint64_t deadlocks_detected() const { return deadlocks_detected_; }
  uint64_t waits() const { return waits_; }
  /// Cumulative hold seconds of every lock released so far.
  double hold_seconds_released() const { return hold_seconds_released_; }

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
  };
  struct LockState {
    // Current holders; if exclusive, exactly one entry.
    std::unordered_map<TxnId, LockMode> holders;
    std::deque<Waiter> queue;
    [[nodiscard]] bool HeldExclusive() const;
  };

  // Grants from the head of `key`'s queue while compatible.
  void GrantWaiters(LockKey key);
  static bool Compatible(const LockState& state, TxnId txn, LockMode mode);

  // Records when `txn` first held `key`, for hold-time attribution.
  void RecordGrant(TxnId txn, LockKey key);

  std::unordered_map<LockKey, LockState> table_;
  // txn -> keys held, each with its grant time (0 when untimed)
  std::unordered_map<TxnId, std::unordered_map<LockKey, double>> txn_locks_;
  // txn -> key it waits for (each txn waits on at most one key because
  // acquisition is sequential)
  std::unordered_map<TxnId, LockKey> waiting_on_;
  GrantCallback grant_cb_;
  std::function<double()> time_source_;
  uint64_t deadlocks_detected_ = 0;
  uint64_t waits_ = 0;
  double hold_seconds_released_ = 0.0;
};

bool ReferenceLockManager::LockState::HeldExclusive() const {
  return holders.size() == 1 &&
         holders.begin()->second == LockMode::kExclusive;
}

bool ReferenceLockManager::Compatible(const LockState& state, TxnId txn,
                             LockMode mode) {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void ReferenceLockManager::RecordGrant(TxnId txn, LockKey key) {
  // try_emplace: an upgrade or re-acquire keeps the original grant time.
  txn_locks_[txn].try_emplace(key,
                              time_source_ ? time_source_() : 0.0);
}

bool ReferenceLockManager::Acquire(TxnId txn, LockKey key, LockMode mode) {
  LockState& state = table_[key];

  auto held = state.holders.find(txn);
  if (held != state.holders.end()) {
    if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // already strong enough
    }
    // Upgrade request: fall through to the compatibility check (own lock is
    // skipped there).
  }

  // FIFO fairness: a new request must also wait behind queued waiters so
  // writers are not starved (unless it's an upgrade, which jumps the queue
  // to avoid trivially self-induced deadlocks).
  bool is_upgrade = held != state.holders.end();
  bool must_queue = !Compatible(state, txn, mode) ||
                    (!is_upgrade && !state.queue.empty());
  if (!must_queue) {
    state.holders[txn] = mode;
    RecordGrant(txn, key);
    return true;
  }

  if (is_upgrade) {
    state.queue.push_front(Waiter{txn, mode});
  } else {
    state.queue.push_back(Waiter{txn, mode});
  }
  waiting_on_[txn] = key;
  ++waits_;
  return false;
}

void ReferenceLockManager::GrantWaiters(LockKey key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  LockState& state = it->second;
  std::vector<Waiter> granted;
  while (!state.queue.empty()) {
    // A copy: pop_front below may free the deque block holding the front.
    const Waiter w = state.queue.front();
    if (!Compatible(state, w.txn, w.mode)) break;
    state.holders[w.txn] = w.mode;
    RecordGrant(w.txn, key);
    waiting_on_.erase(w.txn);
    granted.push_back(w);
    state.queue.pop_front();
    // Only one exclusive grant can proceed; shared grants continue.
    if (w.mode == LockMode::kExclusive) break;
  }
  if (state.holders.empty() && state.queue.empty()) table_.erase(it);
  if (grant_cb_) {
    for (const Waiter& w : granted) grant_cb_(w.txn, key);
  }
}

void ReferenceLockManager::ReleaseAll(TxnId txn) {
  // Cancel a pending wait, if any.
  auto wait_it = waiting_on_.find(txn);
  if (wait_it != waiting_on_.end()) {
    LockKey key = wait_it->second;
    auto table_it = table_.find(key);
    if (table_it != table_.end()) {
      auto& q = table_it->second.queue;
      q.erase(std::remove_if(q.begin(), q.end(),
                             [txn](const Waiter& w) { return w.txn == txn; }),
              q.end());
    }
    waiting_on_.erase(wait_it);
    // The head of the queue may now be grantable (e.g. a cancelled upgrade).
    GrantWaiters(key);
  }

  auto locks_it = txn_locks_.find(txn);
  if (locks_it == txn_locks_.end()) return;
  std::vector<LockKey> keys;
  keys.reserve(locks_it->second.size());
  double now = time_source_ ? time_source_() : 0.0;
  for (const auto& [key, granted_at] : locks_it->second) {
    keys.push_back(key);
    if (time_source_) {
      hold_seconds_released_ += std::max(0.0, now - granted_at);
    }
  }
  txn_locks_.erase(locks_it);
  // Deterministic release order.
  std::sort(keys.begin(), keys.end());
  for (LockKey key : keys) {
    auto table_it = table_.find(key);
    if (table_it == table_.end()) continue;
    table_it->second.holders.erase(txn);
    GrantWaiters(key);
    table_it = table_.find(key);
    if (table_it != table_.end() && table_it->second.holders.empty() &&
        table_it->second.queue.empty()) {
      table_.erase(table_it);
    }
  }
}

bool ReferenceLockManager::IsBlocked(TxnId txn) const {
  return waiting_on_.count(txn) > 0;
}

std::vector<TxnId> ReferenceLockManager::FindDeadlockVictims() const {
  // Build wait-for edges: waiter -> every holder of the key it waits on.
  std::unordered_map<TxnId, std::vector<TxnId>> edges;
  for (const auto& [txn, key] : waiting_on_) {
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    for (const auto& [holder, mode] : it->second.holders) {
      (void)mode;
      if (holder != txn) edges[txn].push_back(holder);
    }
  }
  for (auto& [txn, targets] : edges) {
    (void)txn;
    std::sort(targets.begin(), targets.end());
  }

  std::vector<TxnId> victims;
  std::unordered_set<TxnId> dead;  // already chosen as victims
  // Iterative DFS cycle detection from each waiting txn.
  std::unordered_set<TxnId> visited;
  for (const auto& [start, key] : waiting_on_) {
    (void)key;
    if (visited.count(start) || dead.count(start)) continue;
    // path-based DFS
    std::unordered_map<TxnId, size_t> on_path;  // txn -> index in path
    std::vector<std::pair<TxnId, size_t>> frames{{start, 0}};
    on_path[start] = 0;
    std::vector<TxnId> path{start};
    while (!frames.empty()) {
      auto& [node, edge_idx] = frames.back();
      auto edge_it = edges.find(node);
      if (edge_it == edges.end() || edge_idx >= edge_it->second.size()) {
        visited.insert(node);
        on_path.erase(node);
        path.pop_back();
        frames.pop_back();
        continue;
      }
      TxnId next = edge_it->second[edge_idx++];
      if (dead.count(next)) continue;
      auto cyc = on_path.find(next);
      if (cyc != on_path.end()) {
        // Cycle: path[cyc->second .. end]. Victim = youngest (largest id).
        TxnId victim = next;
        for (size_t i = cyc->second; i < path.size(); ++i) {
          victim = std::max(victim, path[i]);
        }
        victims.push_back(victim);
        dead.insert(victim);
        continue;
      }
      if (visited.count(next)) continue;
      frames.emplace_back(next, 0);
      on_path[next] = path.size();
      path.push_back(next);
    }
  }
  return victims;
}

double ReferenceLockManager::ConflictRatio() const {
  size_t total = 0;
  size_t active = 0;
  for (const auto& [txn, keys] : txn_locks_) {
    total += keys.size();
    if (!IsBlocked(txn)) active += keys.size();
  }
  if (active == 0) return total == 0 ? 1.0 : static_cast<double>(total + 1);
  return static_cast<double>(total) / static_cast<double>(active);
}

size_t ReferenceLockManager::total_locks_held() const {
  size_t total = 0;
  for (const auto& [txn, keys] : txn_locks_) {
    (void)txn;
    total += keys.size();
  }
  return total;
}

size_t ReferenceLockManager::blocked_txn_count() const { return waiting_on_.size(); }

double ReferenceLockManager::HeldSeconds(TxnId txn, double now) const {
  if (!time_source_) return 0.0;
  auto it = txn_locks_.find(txn);
  if (it == txn_locks_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [key, granted_at] : it->second) {
    (void)key;
    total += std::max(0.0, now - granted_at);
  }
  return total;
}

}  // namespace reference

namespace {

using reference::ReferenceLockManager;

// ---------------------------------------------------------------- harness

struct ScriptedLock {
  LockKey key;
  LockMode mode;
};

/// One transaction's lock requests, taken in order; with `release_at_end`
/// it releases everything as soon as the last one is granted, from inside
/// the grant callback when that is where it gets granted.
struct Script {
  std::vector<ScriptedLock> locks;
  bool release_at_end = false;
};

/// A lock manager plus the engine-like loop that feeds it. `log` records
/// every Acquire result and every grant callback, in order.
template <typename Manager>
struct Side {
  Manager lm;
  std::vector<std::tuple<char, TxnId, LockKey, bool>> log;
  std::unordered_map<TxnId, Script> scripts;
  std::unordered_map<TxnId, size_t> cursor;

  explicit Side(const double* now) {
    lm.set_time_source([now] { return *now; });
    lm.set_grant_callback([this](TxnId txn, LockKey key) {
      log.emplace_back('g', txn, key, true);
      ++cursor[txn];
      Continue(txn);
    });
  }

  void Start(TxnId txn, const Script& script) {
    scripts[txn] = script;
    cursor[txn] = 0;
    Continue(txn);
  }

  // Acquires the script's remaining locks until one is queued.
  void Continue(TxnId txn) {
    const Script& script = scripts[txn];
    size_t& at = cursor[txn];
    while (at < script.locks.size()) {
      const ScriptedLock& next = script.locks[at];
      bool granted = lm.Acquire(txn, next.key, next.mode);
      log.emplace_back('a', txn, next.key, granted);
      if (!granted) return;
      ++at;
    }
    if (script.release_at_end) Release(txn);
  }

  void Release(TxnId txn) {
    scripts.erase(txn);
    cursor.erase(txn);
    lm.ReleaseAll(txn);
  }
};

bool CloseEnough(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

/// True if `script` requests a key shared and later exclusive.
bool HasUpgrade(const Script& script) {
  for (size_t i = 0; i < script.locks.size(); ++i) {
    for (size_t j = i + 1; j < script.locks.size(); ++j) {
      if (script.locks[i].key == script.locks[j].key &&
          script.locks[i].mode == LockMode::kShared &&
          script.locks[j].mode == LockMode::kExclusive) {
        return true;
      }
    }
  }
  return false;
}

/// What the random sequences exercised, summed over seeds.
struct Coverage {
  uint64_t waits = 0;
  uint64_t upgrade_scripts = 0;  // a shared request later made exclusive
  uint64_t cancelled_waits = 0;  // ReleaseAll of a waiting transaction
  uint64_t victims = 0;
};

/// Runs one seeded random sequence through both managers and checks they
/// agree after every operation.
void RunSeed(uint64_t seed, Coverage* coverage) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  const int slots = static_cast<int>(rng.UniformInt(2, 10));
  const int64_t keys = rng.UniformInt(2, 12);
  const double exclusive_p = rng.Uniform(0.1, 0.9);
  double now = 0.0;
  Side<ReferenceLockManager> ref(&now);
  Side<LockManager> lm(&now);

  // Slot i runs transaction txn[i]; ids are reused after a release or
  // replaced by fresh ones, so recycled state meets both.
  std::vector<TxnId> txn(static_cast<size_t>(slots));
  TxnId next_id = 1;
  for (TxnId& t : txn) t = next_id++;
  auto new_script = [&] {
    Script script;
    int n = static_cast<int>(rng.UniformInt(1, 5));
    for (int i = 0; i < n; ++i) {
      // Repeated keys give re-acquires and shared->exclusive upgrades.
      script.locks.push_back(
          {static_cast<LockKey>(rng.UniformInt(1, keys)),
           rng.Bernoulli(exclusive_p) ? LockMode::kExclusive
                                      : LockMode::kShared});
    }
    script.release_at_end = rng.Bernoulli(0.2);
    coverage->upgrade_scripts += HasUpgrade(script);
    return script;
  };

  for (int op = 0; op < 400; ++op) {
    TxnId& t = txn[static_cast<size_t>(rng.UniformInt(0, slots - 1))];
    double dice = rng.Uniform01();
    if (dice < 0.45) {
      // Start a script, unless the txn is still waiting inside one.
      if (!ref.lm.IsBlocked(t)) {
        Script script = new_script();
        ref.Start(t, script);
        lm.Start(t, script);
      }
    } else if (dice < 0.7) {
      // Commit or abort: holders and waiters alike.
      coverage->cancelled_waits += ref.lm.IsBlocked(t);
      ref.Release(t);
      lm.Release(t);
      if (rng.Bernoulli(0.5)) t = next_id++;
    } else if (dice < 0.8) {
      std::vector<TxnId> victims = ref.lm.FindDeadlockVictims();
      ASSERT_EQ(lm.lm.FindDeadlockVictims(), victims) << "op " << op;
      coverage->victims += victims.size();
      for (TxnId victim : victims) {
        ref.Release(victim);
        lm.Release(victim);
      }
    } else {
      now += rng.Exponential(0.01);
    }

    ASSERT_EQ(lm.log, ref.log) << "op " << op;
    for (TxnId id = 1; id < next_id; ++id) {
      ASSERT_EQ(lm.lm.IsBlocked(id), ref.lm.IsBlocked(id)) << "txn " << id;
      ASSERT_TRUE(
          CloseEnough(lm.lm.HeldSeconds(id, now), ref.lm.HeldSeconds(id, now)))
          << "txn " << id << " op " << op;
    }
    ASSERT_EQ(lm.lm.ConflictRatio(), ref.lm.ConflictRatio()) << "op " << op;
    ASSERT_EQ(lm.lm.total_locks_held(), ref.lm.total_locks_held());
    ASSERT_EQ(lm.lm.blocked_txn_count(), ref.lm.blocked_txn_count());
    ASSERT_EQ(lm.lm.txn_count(), ref.lm.txn_count());
    ASSERT_EQ(lm.lm.waits(), ref.lm.waits());
    ASSERT_TRUE(CloseEnough(lm.lm.hold_seconds_released(),
                            ref.lm.hold_seconds_released()));
  }
  coverage->waits += ref.lm.waits();
}

TEST(LockManagerEquivalenceTest, MatchesReferenceOnRandomSequences) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunSeed(seed, &coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.waits, 10000u);
  EXPECT_GT(coverage.upgrade_scripts, 1000u);
  EXPECT_GT(coverage.cancelled_waits, 1000u);
  EXPECT_GT(coverage.victims, 500u);
  std::cout << "waits " << coverage.waits << ", upgrade scripts "
            << coverage.upgrade_scripts << ", cancelled waits "
            << coverage.cancelled_waits << ", deadlock victims "
            << coverage.victims << "\n";
}

}  // namespace
}  // namespace wlm
