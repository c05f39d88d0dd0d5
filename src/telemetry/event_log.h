#ifndef WLM_TELEMETRY_EVENT_LOG_H_
#define WLM_TELEMETRY_EVENT_LOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/types.h"

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

/// One control-plane event.
struct WlmEvent {
  double time = 0.0;
  WlmEventType type = WlmEventType::kSubmitted;
  QueryId query = 0;
  std::string workload;
  std::string detail;
};

/// Bounded, append-only event log. Oldest events are evicted past
/// `max_events` (the total count keeps counting). Per-type and per-query
/// secondary indexes keep OfType/ForQuery/CountOf proportional to the
/// result size instead of the retained window, and InWindow binary
/// searches the (nondecreasing) event times. The per-query index is an
/// intrusive chain through the retained events, so a new query costs one
/// small map node rather than a container of its own.
class EventLog {
 public:
  explicit EventLog(size_t max_events = 1 << 16);

  void Append(WlmEvent event);
  void Clear();

  size_t size() const { return events_.size(); }
  int64_t total_appended() const { return total_; }
  const std::deque<WlmEvent>& events() const { return events_; }

  /// Events of one type, oldest first.
  std::vector<WlmEvent> OfType(WlmEventType type) const;
  /// Full history of one request, oldest first.
  std::vector<WlmEvent> ForQuery(QueryId id) const;
  /// Events with time in [begin, end).
  std::vector<WlmEvent> InWindow(double begin, double end) const;
  /// Count of events of `type` (within the retained window). O(1).
  int64_t CountOf(WlmEventType type) const;

 private:
  /// One query's events, linked oldest to newest through next_seq_.
  struct QueryChain {
    int64_t head = 0;
    int64_t tail = 0;
    size_t count = 0;
  };

  size_t Slot(int64_t seq) const {
    return static_cast<size_t>(seq - first_seq_);
  }
  const WlmEvent& AtSeq(int64_t seq) const { return events_[Slot(seq)]; }

  size_t max_events_;
  int64_t total_ = 0;      // sequence number of the next append
  int64_t first_seq_ = 0;  // sequence number of events_.front()
  std::deque<WlmEvent> events_;
  // Parallel to events_: sequence number of the next retained event of the
  // same query, or -1 for the newest.
  std::deque<int64_t> next_seq_;
  // Secondary indexes hold sequence numbers (append order == time order),
  // so eviction only ever pops their fronts / advances chain heads.
  std::array<std::deque<int64_t>, kWlmEventTypeCount> by_type_;
  std::unordered_map<QueryId, QueryChain> by_query_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_EVENT_LOG_H_
