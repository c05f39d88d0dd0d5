#include "engine/lock_manager.h"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

namespace wlm {

namespace {

// Inserts `key`, which `map` must not hold, reusing a node from `free` if
// there is one (its value keeps whatever state its last owner left).
template <typename Map>
typename Map::iterator InsertRecycled(
    Map& map, std::vector<typename Map::node_type>& free,
    typename Map::key_type key) {
  if (free.empty()) return map.try_emplace(key).first;
  typename Map::node_type node = std::move(free.back());
  free.pop_back();
  node.key() = key;
  return map.insert(std::move(node)).position;
}

}  // namespace

bool LockManager::Compatible(const LockState& state, TxnId txn,
                             LockMode mode) {
  for (const TxnLock& holder : state.holders) {
    if (holder.txn == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || holder.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::Grant(LockState& state, LockKey key, TxnId txn,
                        LockMode mode) {
  for (TxnLock& holder : state.holders) {
    if (holder.txn == txn) {
      holder.mode = mode;  // an upgrade keeps the original grant time
      return;
    }
  }
  state.holders.push_back(TxnLock{txn, mode});
  auto it = txn_locks_.find(txn);
  if (it == txn_locks_.end()) {
    it = InsertRecycled(txn_locks_, free_txn_locks_, txn);
  }
  it->second.push_back(HeldLock{key, time_source_ ? time_source_() : 0.0});
}

void LockManager::RecycleIfIdle(LockTable::iterator it) {
  if (it->second.holders.empty() && it->second.queue.empty()) {
    free_states_.push_back(table_.extract(it));
  }
}

void LockManager::StopWaiting(TxnId txn) {
  auto it = waiting_on_.find(txn);
  if (it != waiting_on_.end()) free_waits_.push_back(waiting_on_.extract(it));
}

bool LockManager::Acquire(TxnId txn, LockKey key, LockMode mode) {
  auto it = table_.find(key);
  if (it == table_.end()) it = InsertRecycled(table_, free_states_, key);
  LockState& state = it->second;

  auto held = std::find_if(state.holders.begin(), state.holders.end(),
                           [txn](const TxnLock& h) { return h.txn == txn; });
  bool is_upgrade = held != state.holders.end();
  if (is_upgrade) {
    if (held->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // already strong enough
    }
    // Upgrade request: fall through to the compatibility check (own lock is
    // skipped there).
  }

  // FIFO fairness: a new request must also wait behind queued waiters so
  // writers are not starved (unless it's an upgrade, which jumps the queue
  // to avoid trivially self-induced deadlocks).
  bool must_queue = !Compatible(state, txn, mode) ||
                    (!is_upgrade && !state.queue.empty());
  if (!must_queue) {
    Grant(state, key, txn, mode);
    return true;
  }

  if (is_upgrade) {
    state.queue.insert(state.queue.begin(), TxnLock{txn, mode});
  } else {
    state.queue.push_back(TxnLock{txn, mode});
  }
  auto wait = waiting_on_.find(txn);
  if (wait == waiting_on_.end()) {
    wait = InsertRecycled(waiting_on_, free_waits_, txn);
  }
  wait->second = key;
  ++waits_;
  return false;
}

void LockManager::GrantWaiters(LockKey key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  LockState& state = it->second;
  std::vector<TxnLock> granted = std::move(granted_scratch_);
  granted.clear();
  for (const TxnLock& w : state.queue) {
    if (!Compatible(state, w.txn, w.mode)) break;
    Grant(state, key, w.txn, w.mode);
    StopWaiting(w.txn);
    granted.push_back(w);
    // Only one exclusive grant can proceed; shared grants continue.
    if (w.mode == LockMode::kExclusive) break;
  }
  state.queue.erase(state.queue.begin(),
                    state.queue.begin() +
                        static_cast<std::ptrdiff_t>(granted.size()));
  RecycleIfIdle(it);
  if (grant_cb_) {
    for (const TxnLock& w : granted) grant_cb_(w.txn, key);
  }
  granted_scratch_ = std::move(granted);
}

void LockManager::ReleaseAll(TxnId txn) {
  // Cancel a pending wait, if any.
  auto wait_it = waiting_on_.find(txn);
  if (wait_it != waiting_on_.end()) {
    LockKey key = wait_it->second;
    auto table_it = table_.find(key);
    if (table_it != table_.end()) {
      auto& q = table_it->second.queue;
      q.erase(std::remove_if(q.begin(), q.end(),
                             [txn](const TxnLock& w) { return w.txn == txn; }),
              q.end());
    }
    free_waits_.push_back(waiting_on_.extract(wait_it));
    // The head of the queue may now be grantable (e.g. a cancelled upgrade).
    GrantWaiters(key);
  }

  auto locks_it = txn_locks_.find(txn);
  if (locks_it == txn_locks_.end()) return;
  std::vector<LockKey> keys = std::move(release_scratch_);
  keys.clear();
  double now = time_source_ ? time_source_() : 0.0;
  for (const HeldLock& lock : locks_it->second) {
    keys.push_back(lock.key);
    if (time_source_) {
      hold_seconds_released_ += std::max(0.0, now - lock.granted_at);
    }
  }
  locks_it->second.clear();
  free_txn_locks_.push_back(txn_locks_.extract(locks_it));
  // Deterministic release order.
  std::sort(keys.begin(), keys.end());
  for (LockKey key : keys) {
    auto table_it = table_.find(key);
    if (table_it == table_.end()) continue;
    std::vector<TxnLock>& holders = table_it->second.holders;
    auto holder = std::find_if(holders.begin(), holders.end(),
                               [txn](const TxnLock& h) { return h.txn == txn; });
    if (holder != holders.end()) {
      *holder = holders.back();
      holders.pop_back();
    }
    GrantWaiters(key);  // also recycles the state if it is now idle
  }
  release_scratch_ = std::move(keys);
}

bool LockManager::IsBlocked(TxnId txn) const {
  return waiting_on_.count(txn) > 0;
}

std::vector<TxnId> LockManager::FindDeadlockVictims() const {
  // Build wait-for edges: waiter -> every holder of the key it waits on.
  std::unordered_map<TxnId, std::vector<TxnId>> edges;
  for (const auto& [txn, key] : waiting_on_) {
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    for (const TxnLock& holder : it->second.holders) {
      if (holder.txn != txn) edges[txn].push_back(holder.txn);
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

double LockManager::ConflictRatio() const {
  size_t total = 0;
  size_t active = 0;
  for (const auto& [txn, locks] : txn_locks_) {
    total += locks.size();
    if (!IsBlocked(txn)) active += locks.size();
  }
  if (active == 0) return total == 0 ? 1.0 : static_cast<double>(total + 1);
  return static_cast<double>(total) / static_cast<double>(active);
}

size_t LockManager::total_locks_held() const {
  size_t total = 0;
  for (const auto& [txn, locks] : txn_locks_) {
    (void)txn;
    total += locks.size();
  }
  return total;
}

size_t LockManager::blocked_txn_count() const { return waiting_on_.size(); }

double LockManager::HeldSeconds(TxnId txn, double now) const {
  if (!time_source_) return 0.0;
  auto it = txn_locks_.find(txn);
  if (it == txn_locks_.end()) return 0.0;
  double total = 0.0;
  for (const HeldLock& lock : it->second) {
    total += std::max(0.0, now - lock.granted_at);
  }
  return total;
}

}  // namespace wlm
