#ifndef WLM_ENGINE_LOCK_MANAGER_H_
#define WLM_ENGINE_LOCK_MANAGER_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/types.h"

namespace wlm {

/// Lock modes: shared (readers) and exclusive (writers).
enum class LockMode { kShared, kExclusive };

/// Strict two-phase locking lock table with FIFO grant queues, wait-for
/// graph deadlock detection and the Moenkeberg & Weikum conflict-ratio
/// metric [56] that the conflict-ratio admission controller thresholds on.
///
/// Allocation-free in steady state: a key's lock state and a transaction's
/// lock list are recycled, buffers included, when they empty, and reused
/// for the next new key or transaction; so are `waiting_on_` nodes. Each
/// free list is bounded by its map's high-water mark.
class LockManager {
 public:
  /// Called when a previously queued request is granted.
  using GrantCallback = std::function<void(TxnId, LockKey)>;

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

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
  uint64_t waits() const { return waits_; }
  /// Cumulative hold seconds of every lock released so far.
  double hold_seconds_released() const { return hold_seconds_released_; }

 private:
  // A holder or a queued request of one transaction on one key.
  struct TxnLock {
    TxnId txn;
    LockMode mode;
  };
  struct LockState {
    // Current holders in no particular order (every reader of it is
    // order-independent); if exclusive, exactly one entry.
    std::vector<TxnLock> holders;
    // FIFO grant queue, head first.
    std::vector<TxnLock> queue;
  };
  // A lock `txn` holds, with its first grant time (0 when untimed).
  struct HeldLock {
    LockKey key;
    double granted_at;
  };
  using LockTable = std::unordered_map<LockKey, LockState>;
  using TxnLocks = std::unordered_map<TxnId, std::vector<HeldLock>>;
  using WaitMap = std::unordered_map<TxnId, LockKey>;

  // Grants from the head of `key`'s queue while compatible.
  void GrantWaiters(LockKey key);
  static bool Compatible(const LockState& state, TxnId txn, LockMode mode);
  // Makes `txn` a holder of `key` in `mode`, or upgrades its hold; a new
  // hold is appended to the txn's lock list with the current time.
  void Grant(LockState& state, LockKey key, TxnId txn, LockMode mode);
  // Moves `key`'s state to the free list if nothing holds or awaits it.
  void RecycleIfIdle(LockTable::iterator it);
  // Drops `txn`'s wait entry, if any, onto the free list.
  void StopWaiting(TxnId txn);

  LockTable table_;
  // txn -> locks held, in grant order
  TxnLocks txn_locks_;
  // txn -> key it waits for (each txn waits on at most one key because
  // acquisition is sequential). Its iteration order picks the deadlock
  // search's start points, so it stays a hash map.
  WaitMap waiting_on_;
  // Emptied nodes of the three maps, reused before allocating new ones.
  std::vector<LockTable::node_type> free_states_;
  std::vector<TxnLocks::node_type> free_txn_locks_;
  std::vector<WaitMap::node_type> free_waits_;
  // Scratch reused by GrantWaiters and ReleaseAll. Each is moved out while
  // in use, since grant callbacks may re-enter the lock manager.
  std::vector<TxnLock> granted_scratch_;
  std::vector<LockKey> release_scratch_;
  GrantCallback grant_cb_;
  std::function<double()> time_source_;
  uint64_t waits_ = 0;
  double hold_seconds_released_ = 0.0;
};

}  // namespace wlm

#endif  // WLM_ENGINE_LOCK_MANAGER_H_
