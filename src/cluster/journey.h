#ifndef WLM_CLUSTER_JOURNEY_H_
#define WLM_CLUSTER_JOURNEY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <ranges>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/types.h"
#include "telemetry/profile.h"

namespace wlm {

enum class RouteCause;  // cluster/cluster.h

/// One life of a journey: a single (shard, landing) episode. A query
/// gets a new life for every failover attempt, re-dispatch, crash-drain
/// resurrection and hedge duplicate; the edge from `parent` carries the
/// RouteCause that created this life, so the lives of one journey form a
/// DAG (parent < index by construction — the graph cannot cycle).
struct JourneyLife {
  int index = 0;
  /// Index of the life this one descends from; -1 for the root life.
  int parent = -1;
  /// Edge kind from `parent` (kPlace on the root). 0 == RouteCause::kPlace
  /// (opaque enum here; cluster.h owns the definition).
  RouteCause cause = static_cast<RouteCause>(0);
  int shard = 0;
  /// Failover attempt number within one SubmitToShards pass.
  int attempt = 0;
  bool redispatch = false;
  double start = 0.0;
  /// Terminal instant of this life; -1 while still open.
  double end = -1.0;
  /// How this life ended (completed / shed / killed / blackholed /
  /// refused / hedge_cancelled / ...); empty while open.
  std::string outcome;
  /// Phase decomposition stitched from the landing shard's QueryProfile
  /// (all zero until StitchJourneys runs or when the life never reached
  /// a live shard).
  std::array<double, kPhaseCount> phase_seconds{};
  /// The stitched profile's wall seconds; -1 when no profile was found.
  double profile_wall_seconds = -1.0;

  double PhaseSum() const;
  /// end - start for closed lives, 0 while open.
  double WallSeconds() const { return end >= 0.0 ? end - start : 0.0; }
};

/// The end-to-end story of one query across the cluster: every life it
/// lived, on every shard, linked by the routing decisions that moved it.
struct Journey {
  uint64_t id = 0;
  QueryId query = 0;
  std::string workload;
  double arrival = 0.0;
  std::vector<JourneyLife> lives;

  /// Latest end over closed lives (arrival when none closed).
  double FinishTime() const;
  int OpenLives() const;
};

/// Dispatcher-owned journey accumulator. Bounded: at `max_journeys` a
/// new arrival evicts the journey that completed first, so the newest
/// journeys — the ones a post-mortem needs — stay tracked. A journey is
/// completed while it has no open life and no hold; a hold marks a life
/// still to come (the arrival's placement pass, a scheduled re-dispatch,
/// a stranded orphan), and a journey that completes again after one is
/// ordered by its latest completion. An open or held journey is never
/// evicted: when no retained journey is completed the arrival is
/// dropped (counted) instead, so no journey loses lives mid-flight.
/// Purely passive and deterministic: ids are dense from 1 in begin
/// (submission) order, and every listing is in that order.
class JourneyLog {
  /// A retained journey and its eviction bookkeeping.
  struct Slot {
    Journey journey;
    int holds = 0;
    /// Entries for this journey in completed_; only the last is current.
    int queued = 0;
    bool completed() const { return holds == 0 && journey.OpenLives() == 0; }
  };
  /// Keyed by journey id, so iteration is begin order.
  using Store = std::map<uint64_t, Slot>;

 public:
  explicit JourneyLog(size_t max_journeys = 65536);

  /// Starts the journey of `query` at arrival; returns its journey id,
  /// or 0 when no retained journey is completed (the query then goes
  /// untracked). Takes a hold (also on a known query's journey), to be
  /// released once the arrival's placement pass is over.
  uint64_t Begin(QueryId query, const std::string& workload, double now);

  /// Keeps `query`'s journey from eviction while the caller still means
  /// to open a life for it, though none may be open now. Each Hold
  /// needs one Release; both are no-ops for an untracked query.
  void Hold(QueryId query);
  void Release(QueryId query);

  /// Opens a new life of `query` on `shard`. `parent` is the index of
  /// the life this one descends from (-1 for the root; callers pass
  /// LatestLifeOnShard of the shard the query came from). Returns the
  /// new life index, or -1 for untracked queries.
  int OpenLife(QueryId query, int shard, RouteCause cause, int attempt,
               bool redispatch, double now, int parent);

  /// Closes the most recent open life of `query` on `shard` with
  /// `outcome`; no-op when none is open there.
  void CloseLife(QueryId query, int shard, double now,
                 const std::string& outcome);

  /// Re-labels the most recent life of `query` on `shard` (closing it at
  /// `now` first if still open). Used when a life's meaning is decided
  /// after its terminal event, e.g. a killed hedge copy becoming
  /// `hedge_cancelled`.
  void MarkOutcome(QueryId query, int shard, double now,
                   const std::string& outcome);

  /// Index of the most recent life of `query` on `shard`, or -1.
  int LatestLifeOnShard(QueryId query, int shard) const;

  const Journey* Find(QueryId query) const;
  Journey* FindMutable(QueryId query);

  /// The retained journeys, in begin (submission) order.
  auto journeys() const {
    return std::views::values(journeys_) |
           std::views::transform(&Slot::journey);
  }
  /// Mutable access for post-run stitching (phase/profile back-fill).
  auto MutableJourneys() {
    return std::views::values(journeys_) |
           std::views::transform(&Slot::journey);
  }
  size_t size() const { return journeys_.size(); }
  /// Arrivals not tracked because no retained journey was completed.
  int64_t dropped() const { return dropped_; }
  /// Completed journeys evicted to make room for new arrivals.
  int64_t evicted() const { return evicted_; }

 private:
  Slot* FindSlot(QueryId query);
  /// Called after a life closes or a hold is released: queues the
  /// journey when that completed it.
  void MaybeQueue(Slot& slot);

  size_t max_journeys_;
  Store journeys_;
  // Lookup only (never iterated), so hash order cannot leak into any
  // exported byte stream. Map nodes are stable, so the pointers are too.
  std::unordered_map<QueryId, Slot*> by_query_;
  /// Journey ids in completion order. An entry is stale when a later one
  /// for the same journey follows it, or when its journey was reopened
  /// or held since; Begin drops stale entries from the front.
  std::deque<uint64_t> completed_;
  uint64_t next_id_ = 1;
  int64_t dropped_ = 0;
  int64_t evicted_ = 0;
};

/// One JSON object per life of `journey`, lives in index order.
void WriteJourneyJsonl(const Journey& journey, std::ostream& out);

/// One JSON object per life — journeys in the range's order (begin
/// order for JourneyLog::journeys()), lives in index order, %.6f
/// numerics — the byte-comparable journey-determinism surface for
/// same-seed runs.
template <std::ranges::input_range Journeys>
void WriteJourneysJsonl(const Journeys& journeys, std::ostream& out) {
  for (const Journey& journey : journeys) WriteJourneyJsonl(journey, out);
}

/// Appends `journey`'s trace events to a trace array; `first` is true
/// until the array's first event is written (it owns the separators).
void AppendJourneyChromeTrace(const Journey& journey, bool* first,
                              std::ostream& out);

/// Chrome trace-event JSON for the journeys: one complete ("X") slice
/// per life (pid = shard, tid = journey id) plus flow ("s"/"f") edges
/// named by RouteCause linking each parent life to its children — load
/// into chrome://tracing or Perfetto to follow a query across shards.
template <std::ranges::input_range Journeys>
void WriteJourneysChromeTrace(const Journeys& journeys, std::ostream& out) {
  out << "[\n";
  bool first = true;
  for (const Journey& journey : journeys) {
    AppendJourneyChromeTrace(journey, &first, out);
  }
  out << "\n]\n";
}

/// Fixed-width ASCII timeline of one journey: one row per life with the
/// edge kind, shard, interval, outcome and a bar scaled over the
/// journey's span.
std::string FormatJourneyAscii(const Journey& journey, int width = 48);

}  // namespace wlm

#endif  // WLM_CLUSTER_JOURNEY_H_
