#ifndef WLM_CORE_REQUEST_H_
#define WLM_CORE_REQUEST_H_

#include <cstdint>
#include <limits>
#include <string>

#include "engine/execution.h"
#include "engine/plan.h"
#include "engine/types.h"

namespace wlm {

/// Business priority (importance level) assigned to a workload from the
/// SLA, as in the paper's Section 2.1. Higher enum value = more important.
enum class BusinessPriority {
  kBackground = 0,
  kLow = 1,
  kMedium = 2,
  kHigh = 3,
  kCritical = 4,
};

const char* BusinessPriorityToString(BusinessPriority p);

/// Default engine resource weights for a priority level (the "resource
/// access priority" a service class confers).
ResourceShares SharesForPriority(BusinessPriority p);

/// Lifecycle of a request through the workload-management process:
/// arrival -> (admission) -> queued -> (scheduling) -> running ->
/// (execution control) -> terminal state.
enum class RequestState {
  kArrived,
  kQueued,
  kRejected,   // admission denied
  kRunning,
  kCompleted,
  kKilled,
  kAborted,    // deadlock victim, not resubmitted
  kSuspended,  // suspended and back in the queue awaiting resume
  kShed,       // dropped by overload protection (Status::Overloaded)
};

const char* RequestStateToString(RequestState s);

/// One end-user request flowing through the workload manager. Wraps the
/// engine-level QuerySpec with arrival metadata, the optimizer's
/// pre-execution view (for admission/scheduling decisions), the workload
/// assignment from characterization, and lifecycle timestamps.
struct Request {
  QuerySpec spec;
  /// Optimizer plan: per-operator true work plus est_* fields carrying the
  /// (noisy) estimates controllers are allowed to see.
  Plan plan;

  double arrival_time = 0.0;
  /// Position in its manager's submission order (0 = first submitted).
  uint64_t submit_seq = 0;
  std::string workload;  // assigned workload name
  BusinessPriority priority = BusinessPriority::kMedium;
  ResourceShares shares;

  RequestState state = RequestState::kArrived;
  OutcomeKind outcome = OutcomeKind::kCompleted;
  double dispatch_time = -1.0;
  double finish_time = -1.0;
  /// Absolute sim-clock deadline by which the request must finish to
  /// meet its SLO. +inf = no deadline. Set at submit time from
  /// QuerySpec::deadline_seconds or derived from the workload's
  /// response-time SLO (overload protection only).
  double deadline = std::numeric_limits<double>::infinity();
  /// When the request last entered the wait queue (for sojourn time).
  double enqueued_time = 0.0;
  int resubmits = 0;
  int suspend_count = 0;
  /// Why admission rejected the request (empty otherwise).
  std::string reject_reason;

  // --- cross-run phase accounting (latency decomposition) -----------------
  /// In-engine phase totals accumulated over every run segment (initial
  /// dispatch, post-suspend resumes, post-kill/deadlock reruns).
  ExecPhaseTotals engine_phases;
  /// Wall time spent in the wait queue across all queue passes (excludes
  /// suspended waits and retry backoff, counted separately below).
  double queue_wait_total_seconds = 0.0;
  /// Wall time parked as a suspended query awaiting re-dispatch.
  double suspended_wait_seconds = 0.0;
  /// Wall time in fault-retry backoff limbo before requeue.
  double retry_backoff_seconds = 0.0;
  /// When the request last entered the wait queue or backoff limbo; the
  /// manager rolls the waiting interval into the buckets above at
  /// dispatch. Unlike `enqueued_time` (CoDel sojourn), this is also reset
  /// on the suspend-requeue path.
  double wait_segment_start = 0.0;

  [[nodiscard]] bool terminal() const {
    return state == RequestState::kRejected ||
           state == RequestState::kCompleted ||
           state == RequestState::kKilled ||
           state == RequestState::kAborted || state == RequestState::kShed;
  }

  [[nodiscard]] bool HasDeadline() const {
    return deadline != std::numeric_limits<double>::infinity();
  }

  /// Arrival-to-finish time (the user-visible response time). Only valid
  /// in terminal states with finish_time set.
  double ResponseTime() const { return finish_time - arrival_time; }
  /// Time spent waiting before the (first) dispatch.
  double QueueWait() const {
    return dispatch_time >= 0.0 ? dispatch_time - arrival_time : 0.0;
  }
  /// The paper's execution-velocity metric: expected standalone execution
  /// time / total time in system, in (0, 1]. Requires terminal state.
  double Velocity(int num_cpus, double io_ops_per_second) const;
};

}  // namespace wlm

#endif  // WLM_CORE_REQUEST_H_
