#ifndef WLM_TELEMETRY_PROFILE_H_
#define WLM_TELEMETRY_PROFILE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/types.h"
#include "telemetry/bounded_store.h"

namespace wlm {

/// Mutually exclusive phases of a request's arrival-to-terminal wall time.
/// Manager-side waits (queue, suspended, retry backoff) come from the
/// lifecycle hooks; in-engine phases come from the engine's own
/// ExecPhaseTotals decomposition. For every terminal profile the phase
/// seconds sum to `finish - arrival` up to float rounding — the
/// conservation invariant the telemetry tests enforce.
enum class Phase {
  kAdmissionQueue,  // waiting for dispatch under the normal discipline
  kOverloadQueue,   // waiting while the queue runs newest-first (CoDel
                    // overload mode) — backlog time overload control owns
  kLockWait,        // blocked in the lock manager
  kCpuRun,          // actively consuming CPU
  kIoStall,         // running but waiting on the device
  kMemoryStall,     // I/O stall caused by spill from a short memory grant
  kThrottled,       // duty-cycle sleep slices and pauses
  kSuspendFlush,    // flushing state after a suspend request
  kSuspendedWait,   // suspended, parked until re-dispatch
  kRetryBackoff,    // fault-retry backoff limbo before requeue
};

/// Number of Phase values (keep in sync with the enum).
inline constexpr size_t kPhaseCount = 10;

const char* PhaseToString(Phase phase);

/// Resource attribution of one request across all of its run segments.
struct ResourceAttribution {
  /// CPU-seconds actually consumed.
  double cpu_seconds = 0.0;
  /// Device I/O operations actually performed.
  double io_ops = 0.0;
  /// Largest work-memory grant held by any segment, in MB.
  double peak_memory_mb = 0.0;
  /// Sum over held locks of (release - grant) seconds: the lock-hold
  /// footprint this request imposed on others.
  double lock_hold_seconds = 0.0;
  /// Worst (highest) spill factor any segment ran under.
  double spill_factor = 1.0;
  /// Best buffer-pool hit ratio any segment was granted.
  double buffer_hit_ratio = 0.0;
};

/// Per-query latency decomposition + resource attribution: where every
/// second of a request's life went and what it consumed getting there.
struct QueryProfile {
  QueryId id = 0;
  /// Cluster journey id carried on the spec (0 outside a cluster): the
  /// key that stitches this shard-local profile into a cross-shard DAG.
  uint64_t journey = 0;
  std::string workload;  // service class
  QueryKind kind = QueryKind::kBiQuery;
  double arrival_time = 0.0;
  /// First dispatch into the engine; -1 while never dispatched.
  double first_dispatch_time = -1.0;
  /// Terminal time; -1 while the request is still live.
  double finish_time = -1.0;
  /// Terminal outcome name (completed / killed / aborted / rejected /
  /// shed); empty while live.
  std::string outcome;
  /// Outcome qualifier: reject gate+reason, shed reason, kill detail.
  std::string detail;
  /// Phase seconds, indexed by static_cast<size_t>(Phase).
  std::array<double, kPhaseCount> phase_seconds{};
  ResourceAttribution resources;
  int run_segments = 0;   // engine executions (dispatches + resumes)
  int suspend_count = 0;  // completed suspensions
  int requeue_count = 0;  // resubmits after kill / deadlock / fault retry

  double seconds(Phase phase) const {
    return phase_seconds[static_cast<size_t>(phase)];
  }
  /// Terminal wall time (0 while live).
  double WallSeconds() const {
    return finish_time >= 0.0 ? finish_time - arrival_time : 0.0;
  }
  double PhaseSum() const;
  /// Fraction of the phase sum spent in `phase` (0 when nothing accrued).
  double PhaseShare(Phase phase) const;
  /// Largest bucket; ties break toward the lower enum value.
  Phase DominantPhase() const;
  [[nodiscard]] bool terminal() const { return !outcome.empty(); }
};

/// Per-service-class rollup over terminal profiles.
struct ClassProfileRollup {
  int64_t count = 0;
  std::array<double, kPhaseCount> phase_seconds{};
  ResourceAttribution resources;  // sums (peak fields keep max semantics)
};

/// One line on why a request ended the way it did, for dashboards:
/// "rejected: mpl gate", "shed: brownout level 2", "slow: 78% lock_wait",
/// "healthy: 91% cpu_run".
std::string ExplainOutcome(const QueryProfile& profile);

/// Accumulates per-query profiles as fixed-size records behind a flat
/// id -> slot index, driven by the Telemetry facade's lifecycle hooks.
/// Records hold an interned workload id, an outcome code and the raw
/// numbers; free-text outcomes and details go to a per-slot side string
/// that keeps its capacity. Bounded like the tracer: past `max_profiles`
/// the oldest *terminal* profile is evicted per new profile, in finished
/// order (live requests are never dropped), and its slot is reused.
/// Every listing (Profiles(), rollups()) is explicitly ordered, so slot
/// reuse never leaks into output. Find/Profiles build QueryProfile views.
class ProfileStore {
 public:
  /// Position of a retained profile; empty (false) when the id is unknown.
  /// Stays valid until the next Begin.
  struct Slot {
    uint32_t index = SlotIndex::kNone;
    explicit operator bool() const { return index != SlotIndex::kNone; }
  };

  explicit ProfileStore(size_t max_profiles = 8192);

  /// Creates the profile of `id` at submission (no-op if present).
  /// `journey` is the cluster journey id from the spec (0 standalone).
  Slot Begin(QueryId id, const std::string& workload, QueryKind kind,
             double now, uint64_t journey = 0);
  Slot Lookup(QueryId id) const { return Slot{index_.Find(id)}; }

  /// Opens a wait segment (admission/overload queue, suspended wait,
  /// retry backoff). Any open segment is settled first.
  void OpenWait(Slot slot, Phase phase, double now);
  /// Opens the queue wait segment, choosing kAdmissionQueue or
  /// kOverloadQueue from the current queue discipline.
  void OpenQueueWait(Slot slot, double now);
  /// The wait queue flipped FIFO<->LIFO: re-buckets every open queue
  /// segment at `now` so time is split exactly at the flip.
  void SetQueueDiscipline(bool lifo, double now);
  /// One engine run segment ended (any OutcomeKind): folds its phase
  /// decomposition and resource usage into the profile.
  void AccumulateSegment(Slot slot, const QueryOutcome& outcome);
  void MarkDispatched(Slot slot, double now);
  void CountRequeue(Slot slot);
  void CountSuspend(Slot slot);
  /// Terminal: settles any open segment, stamps the outcome and rolls the
  /// profile into its class rollup. False when the slot is empty or the
  /// profile is already terminal.
  bool Finalize(Slot slot, double now, std::string_view outcome,
                std::string_view detail);
  /// Open wait segment as (phase index, start time); (-1, 0) when none is
  /// open. Lets the facade emit a trace tile before settling.
  std::pair<int, double> OpenSegment(Slot slot) const;
  /// Writes the profile's view into `out`, reusing its string capacity.
  void CopyTo(Slot slot, QueryProfile* out) const;

  // QueryId forms (one lookup each).
  void OpenWait(QueryId id, Phase phase, double now) {
    OpenWait(Lookup(id), phase, now);
  }
  void OpenQueueWait(QueryId id, double now) { OpenQueueWait(Lookup(id), now); }
  void AccumulateSegment(QueryId id, const QueryOutcome& outcome) {
    AccumulateSegment(Lookup(id), outcome);
  }
  void MarkDispatched(QueryId id, double now) {
    MarkDispatched(Lookup(id), now);
  }
  void CountRequeue(QueryId id) { CountRequeue(Lookup(id)); }
  void CountSuspend(QueryId id) { CountSuspend(Lookup(id)); }
  /// Returns the finalized profile (nullopt when `id` is unknown or
  /// already terminal).
  std::optional<QueryProfile> Finalize(QueryId id, double now,
                                       const std::string& outcome,
                                       const std::string& detail);
  std::pair<int, double> OpenSegment(QueryId id) const {
    return OpenSegment(Lookup(id));
  }

  std::optional<QueryProfile> Find(QueryId id) const;
  /// All retained profiles, in creation order.
  std::vector<QueryProfile> Profiles() const;
  /// Per-service-class rollups over terminal profiles, by workload name.
  std::map<std::string, ClassProfileRollup> rollups() const;
  size_t size() const { return records_.size() - free_.size(); }
  int64_t evicted() const { return evicted_; }
  bool queue_lifo() const { return queue_lifo_; }

 private:
  static constexpr uint8_t kLive = 0;
  static constexpr uint8_t kFreeOutcome = UINT8_MAX;

  struct Record {
    QueryId id = 0;
    uint64_t journey = 0;
    uint32_t workload = 0;
    QueryKind kind = QueryKind::kBiQuery;
    bool in_use = false;
    bool has_detail = false;
    uint8_t outcome = kLive;  // index into the outcome names, or free
    double arrival_time = 0.0;
    double first_dispatch_time = -1.0;
    double finish_time = -1.0;
    std::array<double, kPhaseCount> phase_seconds{};
    ResourceAttribution resources;
    int run_segments = 0;
    int suspend_count = 0;
    int requeue_count = 0;
    int open_phase = -1;  // static_cast<int>(Phase); -1 = none open
    double open_start = 0.0;
    int64_t order = 0;  // creation order, for deterministic listing
  };
  /// Free-text outcome and detail of a slot, touched only when used.
  struct SideText {
    std::string outcome;
    std::string detail;
  };

  Record* At(Slot slot) { return slot ? &records_[slot.index] : nullptr; }
  void SettleRecord(Record& record, double now);

  size_t max_profiles_;
  int64_t next_order_ = 0;
  int64_t evicted_ = 0;
  bool queue_lifo_ = false;
  SlotIndex index_;
  std::vector<Record> records_;
  std::vector<SideText> side_;
  std::vector<uint32_t> free_;    // slots evicted without reuse
  FifoRing<uint32_t> finished_;  // terminal slots, oldest first
  NameTable workloads_;
  std::vector<ClassProfileRollup> rollups_;  // by interned workload id
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_PROFILE_H_
