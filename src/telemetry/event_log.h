#ifndef WLM_TELEMETRY_EVENT_LOG_H_
#define WLM_TELEMETRY_EVENT_LOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"
#include "telemetry/bounded_store.h"

namespace wlm {

/// Control-plane event kinds recorded by the workload manager. This is
/// the library's analogue of the commercial products' event monitors
/// (DB2's activity and threshold-violation monitors, SQL Server's
/// Resource Governor events, Teradata's exception logging).
enum class WlmEventType {
  kSubmitted,
  kRejected,       // admission denied
  kDispatched,     // sent to the execution engine
  kCompleted,
  kKilled,
  kAborted,        // deadlock victim, not resubmitted
  kResubmitted,    // requeued after a kill/abort
  kSuspended,      // suspension finished, request back in queue
  kResumed,        // dispatched again from a suspended state
  kThrottled,      // duty-cycle change
  kPaused,         // interrupt-throttle pause
  kReprioritized,  // business priority change
  kSloViolation,   // SLO watchdog: a workload objective went unmet
  kFaultInjected,  // fault injector activated a fault window
  kFaultRecovered, // fault window ended; injected degradation reverted
  kShed,           // overload protection dropped the request
  kRetryDenied,    // resilience retry blocked (budget or deadline)
  kBreakerTripped, // circuit breaker opened for a workload
  kBreakerHalfOpen,// breaker admitting probes after cool-down
  kBreakerClosed,  // breaker closed after healthy probes
  kBrownoutStepped,// brownout shed level changed
  kShardDown,      // cluster failure detector declared a shard dead
  kShardRecovered, // dead shard heartbeating again; warm-up ramp begins
  kHedged,         // deadline-critical query duplicated to a second shard
};

/// Number of WlmEventType values (keep in sync with the enum).
inline constexpr size_t kWlmEventTypeCount = 24;

const char* WlmEventTypeToString(WlmEventType type);

/// One control-plane event, as the read views return it.
struct WlmEvent {
  double time = 0.0;
  WlmEventType type = WlmEventType::kSubmitted;
  QueryId query = 0;
  std::string workload;
  std::string detail;
};

/// Bounded, append-only event log. The retained window is a ring of
/// fixed-size records (interned workload id, type, query, time) overwritten
/// in place; past `max_events` the oldest is evicted (the total count keeps
/// counting). Details live in a side ring of recycled strings that only
/// events with a detail touch. Per-type and per-query chains linked through
/// the records keep OfType/ForQuery/CountOf proportional to the result
/// size, and InWindow binary searches the (nondecreasing) event times.
/// Capacity is reserved, not touched, at construction; once the window is
/// full an append allocates nothing. The views build WlmEvents on each call.
class EventLog {
 public:
  explicit EventLog(size_t max_events = 1 << 16);

  void Append(WlmEvent event);
  /// The same append without building a WlmEvent: only `detail` is copied,
  /// into a recycled side-ring string.
  void Append(double time, WlmEventType type, QueryId query,
              std::string_view workload, std::string_view detail = {});
  void Clear();

  size_t size() const { return static_cast<size_t>(total_ - first_seq_); }
  int64_t total_appended() const { return total_; }
  /// The retained window, oldest first.
  std::vector<WlmEvent> events() const { return Recent(size()); }
  /// The newest `count` retained events (all when fewer), oldest first.
  std::vector<WlmEvent> Recent(size_t count) const;

  /// Events of one type, oldest first.
  std::vector<WlmEvent> OfType(WlmEventType type) const;
  /// Full history of one request, oldest first.
  std::vector<WlmEvent> ForQuery(QueryId id) const;
  /// Events with time in [begin, end).
  std::vector<WlmEvent> InWindow(double begin, double end) const;
  /// Count of events of `type` (within the retained window). O(1).
  int64_t CountOf(WlmEventType type) const;

 private:
  static constexpr uint32_t kNone = SlotIndex::kNone;

  /// One retained event. Links are ring positions of the next retained
  /// event of the same query / type (a link always points at a newer
  /// event, which is evicted after its predecessor).
  struct Record {
    double time;
    QueryId query;
    uint32_t next_same_query;
    uint32_t next_same_type;
    uint32_t detail;  // side-ring position, or kNone
    uint32_t workload;
    WlmEventType type;
  };
  struct Chain {
    uint32_t head = kNone;
    uint32_t tail = kNone;
    int64_t count = 0;
  };

  /// Ring position `offset` events after the oldest retained one.
  uint32_t PositionAt(size_t offset) const {
    size_t pos = head_ + offset;
    return static_cast<uint32_t>(pos >= max_events_ ? pos - max_events_
                                                    : pos);
  }
  uint32_t Next(uint32_t pos) const {
    return pos + 1 == max_events_ ? 0 : pos + 1;
  }
  static void Link(Chain& chain, uint32_t pos, uint32_t Record::*next,
                   std::vector<Record>& ring);
  void EvictOldest();
  WlmEvent Materialize(uint32_t pos) const;

  size_t max_events_;
  int64_t total_ = 0;      // sequence number of the next append
  int64_t first_seq_ = 0;  // sequence number of the oldest retained event
  uint32_t head_ = 0;      // ring position of the oldest retained event
  uint32_t next_pos_ = 0;  // ring position of the next append
  std::vector<Record> ring_;
  std::vector<std::string> details_;  // side ring, reused in place
  uint32_t next_detail_ = 0;
  std::array<Chain, kWlmEventTypeCount> by_type_;
  SlotIndex query_index_;  // query id -> chain in query_chains_
  std::vector<Chain> query_chains_;
  std::vector<uint32_t> free_chains_;
  NameTable workloads_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_EVENT_LOG_H_
