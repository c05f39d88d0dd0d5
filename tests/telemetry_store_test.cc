// Differential test of the flat per-query telemetry stores (Tracer,
// ProfileStore, EventLog) against their former node-based implementations,
// kept below verbatim as the reference (only renamed), together with the
// former Chrome-trace and event-log exporters. Seeded hook scripts drive
// both sides in lockstep the way the Telemetry facade and
// WorkloadManager::LogEvent do: the new side through slots and text codes,
// the reference through the strings the facade used to build. After every
// step each read API and both exports must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/monitor.h"
#include "telemetry/bounded_store.h"
#include "telemetry/event_log.h"
#include "telemetry/exporters.h"
#include "telemetry/profile.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace wlm {
// A named namespace, not an anonymous one, as in lock_manager_test: the
// reference is kept verbatim, unused members included.
namespace reference {

// ------------------------------------------------------------- reference

/// Insert step of the references' bounded maps. While `map` holds `cap` or
/// more entries and some entry has finished, the oldest finished one
/// (front of `finished_order`) is evicted and counted in `evicted`; live
/// entries are never dropped. The last evicted node is re-keyed to `key`
/// and reused: `reset` must return its value to the default state.
/// Without an eviction the value is default-constructed.
template <typename Map, typename Reset>
typename Map::mapped_type& EmplaceRecycled(
    Map& map, std::deque<typename Map::key_type>& finished_order, size_t cap,
    int64_t& evicted, const typename Map::key_type& key, Reset reset) {
  typename Map::node_type node;
  while (map.size() >= cap && !finished_order.empty()) {
    node = map.extract(finished_order.front());
    finished_order.pop_front();
    ++evicted;
  }
  if (node.empty()) return map.try_emplace(map.end(), key)->second;
  node.key() = key;
  reset(node.mapped());
  return map.insert(map.end(), std::move(node))->second;
}

/// Accumulates QueryTraces, bounded by `max_traces`: once the limit is
/// reached the oldest *finished* trace is evicted per new trace (live
/// queries are never dropped; their count is bounded by the MPL anyway).
/// The evicted slot is recycled for the new trace, keeping its span and
/// instant capacity, so a full tracer allocates no per-query nodes.
class ReferenceTracer {
 public:
  explicit ReferenceTracer(size_t max_traces = 8192);

  /// Creates (or returns) the trace of `id`.
  QueryTrace& GetOrCreate(QueryId id, const std::string& workload,
                          QueryKind kind, double now);
  const QueryTrace* Find(QueryId id) const;

  void OpenSpan(QueryId id, SpanKind kind, double now,
                std::string detail = "");
  /// Closes the most recent open span of `kind`; no-op when none is open.
  /// `append_detail` is appended to the span's detail.
  void CloseSpan(QueryId id, SpanKind kind, double now,
                 const std::string& append_detail = "");
  /// Records an already-closed span (used when the duration is only known
  /// after the fact, e.g. lock waits reported with the outcome).
  void AddClosedSpan(QueryId id, SpanKind kind, double start, double end,
                     std::string detail = "");
  /// Records a batch of already-closed spans with a single trace lookup
  /// (the per-segment phase tiles would otherwise pay one tree walk
  /// each). Spans are moved from; entries with end < start are skipped.
  void AddClosedSpans(QueryId id, Span* spans, size_t count);
  void Instant(QueryId id, std::string name, double now,
               std::string detail = "");

  /// Closes the open execute span (appending `append_detail`) and closes
  /// or clamps the inner throttle/pause/lock-wait spans to `now`, so a
  /// pre-recorded pause window never outlives the segment it belongs to.
  void CloseExecutionSegment(QueryId id, double now,
                             const std::string& append_detail);

  /// Terminal bookkeeping: closes every open span at `now` and clamps any
  /// span end past `now` back to it (a pre-recorded pause window may
  /// outlive a kill), keeping the trace nestable.
  void FinishTrace(QueryId id, double now);

  /// All traces, in creation (tid) order.
  std::vector<const QueryTrace*> Traces() const;
  size_t size() const { return traces_.size(); }
  int64_t evicted() const { return evicted_; }

 private:
  /// Synthetic tracks never finish, so eviction never reaches them: each
  /// keeps its newest `max_traces` spans and instants.
  void Bound(QueryTrace& trace) const {
    if (!IsSyntheticQueryId(trace.id)) return;
    if (trace.spans.size() > max_traces_) {
      trace.spans.erase(trace.spans.begin());
    }
    if (trace.instants.size() > max_traces_) {
      trace.instants.erase(trace.instants.begin());
    }
  }

  size_t max_traces_;
  int next_tid_ = 1;
  int64_t evicted_ = 0;
  std::unordered_map<QueryId, QueryTrace> traces_;
  std::deque<QueryId> finished_order_;
};

ReferenceTracer::ReferenceTracer(size_t max_traces) : max_traces_(max_traces) {
  // The population is bounded, so sizing the table once avoids rehashes.
  traces_.reserve(max_traces_);
}

QueryTrace& ReferenceTracer::GetOrCreate(QueryId id, const std::string& workload,
                                QueryKind kind, double now) {
  auto it = traces_.find(id);
  if (it != traces_.end()) return it->second;
  QueryTrace& trace = EmplaceRecycled(
      traces_, finished_order_, max_traces_, evicted_, id,
      [](QueryTrace& stale) {
        // Back to defaults, keeping the span and instant capacity.
        QueryTrace fresh;
        fresh.spans.swap(stale.spans);
        fresh.instants.swap(stale.instants);
        fresh.spans.clear();
        fresh.instants.clear();
        stale = std::move(fresh);
      });
  trace.id = id;
  trace.workload = workload;
  trace.kind = kind;
  trace.tid = next_tid_++;
  trace.start_time = now;
  // A healthy query records ~8 spans plus up to 6 phase tiles; one
  // up-front reservation spares every trace the realloc-and-move churn
  // of growing through 1/2/4/8/16.
  trace.spans.reserve(16);
  return trace;
}

const QueryTrace* ReferenceTracer::Find(QueryId id) const {
  auto it = traces_.find(id);
  return it == traces_.end() ? nullptr : &it->second;
}

void ReferenceTracer::OpenSpan(QueryId id, SpanKind kind, double now,
                      std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  Span span;
  span.kind = kind;
  span.start = now;
  span.detail = std::move(detail);
  it->second.spans.push_back(std::move(span));
  Bound(it->second);
}

void ReferenceTracer::CloseSpan(QueryId id, SpanKind kind, double now,
                       const std::string& append_detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  auto& spans = it->second.spans;
  for (auto rit = spans.rbegin(); rit != spans.rend(); ++rit) {
    if (rit->kind == kind && rit->open()) {
      rit->end = std::max(now, rit->start);
      if (!append_detail.empty()) {
        if (!rit->detail.empty()) rit->detail += ' ';
        rit->detail += append_detail;
      }
      return;
    }
  }
}

void ReferenceTracer::AddClosedSpan(QueryId id, SpanKind kind, double start,
                           double end, std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end() || end < start) return;
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.detail = std::move(detail);
  it->second.spans.push_back(std::move(span));
  Bound(it->second);
}

void ReferenceTracer::AddClosedSpans(QueryId id, Span* spans, size_t count) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  auto& out = it->second.spans;
  for (size_t i = 0; i < count; ++i) {
    if (spans[i].end < spans[i].start) continue;
    out.push_back(std::move(spans[i]));
    Bound(it->second);
  }
}

void ReferenceTracer::Instant(QueryId id, std::string name, double now,
                     std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  TraceInstant instant;
  instant.time = now;
  instant.name = std::move(name);
  instant.detail = std::move(detail);
  it->second.instants.push_back(std::move(instant));
  Bound(it->second);
}

void ReferenceTracer::CloseExecutionSegment(QueryId id, double now,
                                   const std::string& append_detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  for (Span& span : it->second.spans) {
    if (span.kind != SpanKind::kThrottle && span.kind != SpanKind::kPause &&
        span.kind != SpanKind::kLockWait) {
      continue;
    }
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  CloseSpan(id, SpanKind::kExecute, now, append_detail);
}

void ReferenceTracer::FinishTrace(QueryId id, double now) {
  auto it = traces_.find(id);
  if (it == traces_.end() || it->second.finished) return;
  for (Span& span : it->second.spans) {
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  it->second.finished = true;
  finished_order_.push_back(id);
}

std::vector<const QueryTrace*> ReferenceTracer::Traces() const {
  std::vector<const QueryTrace*> out;
  out.reserve(traces_.size());
  for (const auto& [id, trace] : traces_) out.push_back(&trace);
  std::sort(out.begin(), out.end(),
            [](const QueryTrace* a, const QueryTrace* b) {
              return a->tid < b->tid;
            });
  return out;
}

/// Accumulates QueryProfiles, driven by the Telemetry facade's lifecycle
/// hooks. Bounded like the tracer: past `max_profiles` the oldest
/// *terminal* profile is evicted per new profile (live requests are never
/// dropped) and its slot is recycled for the new one. Lookups are O(1);
/// every externally visible listing (Profiles(), rollups()) is explicitly
/// ordered, so the hash map never leaks iteration nondeterminism.
class ReferenceProfileStore {
 public:
  explicit ReferenceProfileStore(size_t max_profiles = 8192);

  /// Creates the profile of `id` at submission (no-op if present).
  /// `journey` is the cluster journey id from the spec (0 standalone).
  void Begin(QueryId id, const std::string& workload, QueryKind kind,
             double now, uint64_t journey = 0);
  /// Opens a wait segment (admission/overload queue, suspended wait,
  /// retry backoff). Any open segment is settled first.
  void OpenWait(QueryId id, Phase phase, double now);
  /// Opens the queue wait segment, choosing kAdmissionQueue or
  /// kOverloadQueue from the current queue discipline.
  void OpenQueueWait(QueryId id, double now);
  /// Settles the open wait segment (if any) into its bucket.
  void Settle(QueryId id, double now);
  /// The wait queue flipped FIFO<->LIFO: re-buckets every open queue
  /// segment at `now` so time is split exactly at the flip.
  void SetQueueDiscipline(bool lifo, double now);
  /// One engine run segment ended (any OutcomeKind): folds its phase
  /// decomposition and resource usage into the profile.
  void AccumulateSegment(QueryId id, const QueryOutcome& outcome);
  void MarkDispatched(QueryId id, double now);
  void CountRequeue(QueryId id);
  void CountSuspend(QueryId id);
  /// Terminal: settles any open segment, stamps the outcome and rolls the
  /// profile into its class rollup. Returns the finalized profile
  /// (nullptr when `id` is unknown).
  const QueryProfile* Finalize(QueryId id, double now,
                               const std::string& outcome,
                               const std::string& detail);

  const QueryProfile* Find(QueryId id) const;
  /// Open wait segment of `id` as (phase index, start time); (-1, 0) when
  /// none is open. Lets the facade emit a trace tile before settling.
  std::pair<int, double> OpenSegment(QueryId id) const;
  /// All retained profiles, in creation order.
  std::vector<const QueryProfile*> Profiles() const;
  const std::map<std::string, ClassProfileRollup>& rollups() const {
    return rollups_;
  }
  size_t size() const { return profiles_.size(); }
  int64_t evicted() const { return evicted_; }
  bool queue_lifo() const { return queue_lifo_; }

 private:
  struct Entry {
    QueryProfile profile;
    int64_t order = 0;       // creation order, for deterministic listing
    int open_phase = -1;     // static_cast<int>(Phase); -1 = none open
    double open_start = 0.0;
  };

  Entry* FindEntry(QueryId id);
  /// Settle on an already-resolved entry (skips the repeat lookup the
  /// public Settle would pay on the per-query hot path).
  void SettleEntry(Entry* entry, double now);

  size_t max_profiles_;
  int64_t next_order_ = 0;
  int64_t evicted_ = 0;
  bool queue_lifo_ = false;
  std::unordered_map<QueryId, Entry> profiles_;
  std::deque<QueryId> finished_order_;
  std::map<std::string, ClassProfileRollup> rollups_;
};

ReferenceProfileStore::ReferenceProfileStore(size_t max_profiles)
    : max_profiles_(max_profiles) {
  // The store's population is bounded, so pre-sizing the hash table once
  // avoids every rehash (each of which would move all live entries).
  profiles_.reserve(max_profiles_);
}

ReferenceProfileStore::Entry* ReferenceProfileStore::FindEntry(QueryId id) {
  auto it = profiles_.find(id);
  return it == profiles_.end() ? nullptr : &it->second;
}

void ReferenceProfileStore::Begin(QueryId id, const std::string& workload,
                         QueryKind kind, double now, uint64_t journey) {
  if (profiles_.find(id) != profiles_.end()) return;
  Entry& entry = EmplaceRecycled(profiles_, finished_order_, max_profiles_,
                                 evicted_, id,
                                 [](Entry& stale) { stale = Entry(); });
  entry.profile.id = id;
  entry.profile.journey = journey;
  entry.profile.workload = workload;
  entry.profile.kind = kind;
  entry.profile.arrival_time = now;
  entry.order = next_order_++;
}

void ReferenceProfileStore::OpenWait(QueryId id, Phase phase, double now) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr) return;
  SettleEntry(entry, now);
  entry->open_phase = static_cast<int>(phase);
  entry->open_start = now;
}

void ReferenceProfileStore::OpenQueueWait(QueryId id, double now) {
  OpenWait(id, queue_lifo_ ? Phase::kOverloadQueue : Phase::kAdmissionQueue,
           now);
}

void ReferenceProfileStore::Settle(QueryId id, double now) {
  SettleEntry(FindEntry(id), now);
}

void ReferenceProfileStore::SettleEntry(Entry* entry, double now) {
  if (entry == nullptr || entry->open_phase < 0) return;
  double waited = std::max(0.0, now - entry->open_start);
  entry->profile.phase_seconds[static_cast<size_t>(entry->open_phase)] +=
      waited;
  entry->open_phase = -1;
}

void ReferenceProfileStore::SetQueueDiscipline(bool lifo, double now) {
  if (lifo == queue_lifo_) return;
  queue_lifo_ = lifo;
  const int admission = static_cast<int>(Phase::kAdmissionQueue);
  const int overload = static_cast<int>(Phase::kOverloadQueue);
  for (auto& [id, entry] : profiles_) {
    if (entry.open_phase != admission && entry.open_phase != overload) {
      continue;
    }
    SettleEntry(&entry, now);
    entry.open_phase = lifo ? overload : admission;
    entry.open_start = now;
  }
}

void ReferenceProfileStore::AccumulateSegment(QueryId id, const QueryOutcome& outcome) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr) return;
  QueryProfile& p = entry->profile;
  const ExecPhaseTotals& phases = outcome.phases;
  auto add = [&p](Phase phase, double seconds) {
    p.phase_seconds[static_cast<size_t>(phase)] += seconds;
  };
  add(Phase::kLockWait, phases.lock_wait_seconds);
  add(Phase::kCpuRun, phases.cpu_run_seconds);
  add(Phase::kIoStall, phases.io_stall_seconds);
  add(Phase::kMemoryStall, phases.memory_stall_seconds);
  add(Phase::kThrottled, phases.throttled_seconds);
  add(Phase::kSuspendFlush, phases.suspend_flush_seconds);
  p.resources.cpu_seconds += outcome.cpu_used;
  p.resources.io_ops += outcome.io_used;
  p.resources.peak_memory_mb =
      std::max(p.resources.peak_memory_mb, outcome.memory_granted_mb);
  p.resources.lock_hold_seconds += outcome.lock_hold_seconds;
  p.resources.spill_factor =
      std::max(p.resources.spill_factor, outcome.spill_factor);
  p.resources.buffer_hit_ratio =
      std::max(p.resources.buffer_hit_ratio, outcome.buffer_hit_ratio);
  ++p.run_segments;
}

void ReferenceProfileStore::MarkDispatched(QueryId id, double now) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr) return;
  SettleEntry(entry, now);
  if (entry->profile.first_dispatch_time < 0.0) {
    entry->profile.first_dispatch_time = now;
  }
}

void ReferenceProfileStore::CountRequeue(QueryId id) {
  Entry* entry = FindEntry(id);
  if (entry != nullptr) ++entry->profile.requeue_count;
}

void ReferenceProfileStore::CountSuspend(QueryId id) {
  Entry* entry = FindEntry(id);
  if (entry != nullptr) ++entry->profile.suspend_count;
}

const QueryProfile* ReferenceProfileStore::Finalize(QueryId id, double now,
                                           const std::string& outcome,
                                           const std::string& detail) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr || entry->profile.terminal()) return nullptr;
  SettleEntry(entry, now);
  QueryProfile& p = entry->profile;
  p.finish_time = now;
  p.outcome = outcome;
  p.detail = detail;
  finished_order_.push_back(id);

  ClassProfileRollup& rollup = rollups_[p.workload];
  ++rollup.count;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    rollup.phase_seconds[i] += p.phase_seconds[i];
  }
  rollup.resources.cpu_seconds += p.resources.cpu_seconds;
  rollup.resources.io_ops += p.resources.io_ops;
  rollup.resources.peak_memory_mb = std::max(
      rollup.resources.peak_memory_mb, p.resources.peak_memory_mb);
  rollup.resources.lock_hold_seconds += p.resources.lock_hold_seconds;
  rollup.resources.spill_factor =
      std::max(rollup.resources.spill_factor, p.resources.spill_factor);
  rollup.resources.buffer_hit_ratio =
      std::max(rollup.resources.buffer_hit_ratio, p.resources.buffer_hit_ratio);
  return &p;
}

const QueryProfile* ReferenceProfileStore::Find(QueryId id) const {
  auto it = profiles_.find(id);
  return it == profiles_.end() ? nullptr : &it->second.profile;
}

std::pair<int, double> ReferenceProfileStore::OpenSegment(QueryId id) const {
  auto it = profiles_.find(id);
  if (it == profiles_.end() || it->second.open_phase < 0) return {-1, 0.0};
  return {it->second.open_phase, it->second.open_start};
}

std::vector<const QueryProfile*> ReferenceProfileStore::Profiles() const {
  std::vector<std::pair<int64_t, const QueryProfile*>> ordered;
  ordered.reserve(profiles_.size());
  for (const auto& [id, entry] : profiles_) {
    ordered.emplace_back(entry.order, &entry.profile);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<const QueryProfile*> out;
  out.reserve(ordered.size());
  for (const auto& [order, profile] : ordered) out.push_back(profile);
  return out;
}

/// Bounded, append-only event log. Oldest events are evicted past
/// `max_events` (the total count keeps counting). Per-type and per-query
/// secondary indexes keep OfType/ForQuery/CountOf proportional to the
/// result size instead of the retained window, and InWindow binary
/// searches the (nondecreasing) event times. The per-query index is an
/// intrusive chain through the retained events, so a new query costs one
/// small map node rather than a container of its own.
class ReferenceEventLog {
 public:
  explicit ReferenceEventLog(size_t max_events = 1 << 16);

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

ReferenceEventLog::ReferenceEventLog(size_t max_events) : max_events_(max_events) {}

void ReferenceEventLog::Append(WlmEvent event) {
  const int64_t seq = total_++;
  by_type_[static_cast<size_t>(event.type)].push_back(seq);
  auto [chain_it, inserted] = by_query_.try_emplace(event.query);
  QueryChain& chain = chain_it->second;
  if (inserted) {
    chain.head = seq;
  } else {
    next_seq_[Slot(chain.tail)] = seq;
  }
  chain.tail = seq;
  ++chain.count;
  events_.push_back(std::move(event));
  next_seq_.push_back(-1);
  while (events_.size() > max_events_) {
    const WlmEvent& oldest = events_.front();
    // The evicted event holds the globally smallest sequence number, so it
    // must sit at the front of its type index and head its query chain.
    auto& type_index = by_type_[static_cast<size_t>(oldest.type)];
    assert(!type_index.empty() && type_index.front() == first_seq_);
    type_index.pop_front();
    auto query_it = by_query_.find(oldest.query);
    assert(query_it != by_query_.end() &&
           query_it->second.head == first_seq_);
    if (--query_it->second.count == 0) {
      by_query_.erase(query_it);
    } else {
      query_it->second.head = next_seq_.front();
    }
    events_.pop_front();
    next_seq_.pop_front();
    ++first_seq_;
  }
}

void ReferenceEventLog::Clear() {
  events_.clear();
  next_seq_.clear();
  for (auto& index : by_type_) index.clear();
  by_query_.clear();
  first_seq_ = total_;
}

std::vector<WlmEvent> ReferenceEventLog::OfType(WlmEventType type) const {
  const auto& index = by_type_[static_cast<size_t>(type)];
  std::vector<WlmEvent> out;
  out.reserve(index.size());
  for (int64_t seq : index) out.push_back(AtSeq(seq));
  return out;
}

std::vector<WlmEvent> ReferenceEventLog::ForQuery(QueryId id) const {
  auto it = by_query_.find(id);
  if (it == by_query_.end()) return {};
  std::vector<WlmEvent> out;
  out.reserve(it->second.count);
  for (int64_t seq = it->second.head; seq >= 0; seq = next_seq_[Slot(seq)]) {
    out.push_back(AtSeq(seq));
  }
  return out;
}

std::vector<WlmEvent> ReferenceEventLog::InWindow(double begin, double end) const {
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), begin,
      [](const WlmEvent& e, double t) { return e.time < t; });
  auto hi = std::lower_bound(
      lo, events_.end(), end,
      [](const WlmEvent& e, double t) { return e.time < t; });
  return std::vector<WlmEvent>(lo, hi);
}

int64_t ReferenceEventLog::CountOf(WlmEventType type) const {
  return static_cast<int64_t>(by_type_[static_cast<size_t>(type)].size());
}

/// Simulated seconds -> integer trace microseconds.
long long ToMicros(double seconds) {
  return std::llround(seconds * 1e6);
}

void WriteEvent(std::ostream& out, bool& first, const std::string& json) {
  if (!first) out << ",\n";
  first = false;
  out << json;
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void WriteChromeTrace(const ReferenceTracer& tracer, std::ostream& out,
                      const Monitor* monitor) {
  out << "[\n";
  bool first = true;
  WriteEvent(out, first,
             R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
             R"("args":{"name":"wlm"}})");
  WriteEvent(out, first,
             R"({"name":"process_name","ph":"M","pid":2,"tid":0,)"
             R"("args":{"name":"wlm phases"}})");

  for (const QueryTrace* trace : tracer.Traces()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  R"({"name":"thread_name","ph":"M","pid":1,"tid":%d,)"
                  R"("args":{"name":"q%llu [%s]"}})",
                  trace->tid, static_cast<unsigned long long>(trace->id),
                  JsonEscape(trace->workload).c_str());
    WriteEvent(out, first, buf);

    for (const Span& span : trace->spans) {
      const double end = span.open() ? span.start : span.end;
      // Phase tiles partition a segment; they can straddle throttle/pause
      // windows on the query's own track, so they render as a parallel
      // "phase lane" process where each query still keeps its tid.
      const bool phase = span.kind == SpanKind::kPhase;
      std::string json = "{\"name\":\"";
      if (phase && !span.detail.empty()) {
        json += JsonEscape(span.detail);
      } else {
        json += SpanKindToString(span.kind);
      }
      json += "\",\"cat\":\"";
      json += JsonEscape(trace->workload);
      json += "\",\"ph\":\"X\",\"ts\":";
      json += std::to_string(ToMicros(span.start));
      json += ",\"dur\":";
      json += std::to_string(
          std::max(0LL, ToMicros(end) - ToMicros(span.start)));
      json += phase ? ",\"pid\":2,\"tid\":" : ",\"pid\":1,\"tid\":";
      json += std::to_string(trace->tid);
      json += ",\"args\":{\"query\":";
      json += std::to_string(trace->id);
      if (!span.detail.empty()) {
        json += ",\"detail\":\"";
        json += JsonEscape(span.detail);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
    for (const TraceInstant& instant : trace->instants) {
      std::string json = "{\"name\":\"";
      json += JsonEscape(instant.name);
      json += "\",\"cat\":\"";
      json += JsonEscape(trace->workload);
      json += "\",\"ph\":\"X\",\"ts\":";
      json += std::to_string(ToMicros(instant.time));
      json += ",\"dur\":0,\"pid\":1,\"tid\":";
      json += std::to_string(trace->tid);
      json += ",\"args\":{\"query\":";
      json += std::to_string(trace->id);
      if (!instant.detail.empty()) {
        json += ",\"detail\":\"";
        json += JsonEscape(instant.detail);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
  }

  if (monitor != nullptr) {
    for (const auto& [name, series] : monitor->all_series()) {
      for (const TimePoint& point : series.points()) {
        std::string json = "{\"name\":\"";
        json += JsonEscape(name);
        json += "\",\"ph\":\"C\",\"ts\":";
        json += std::to_string(ToMicros(point.time));
        json += ",\"pid\":1,\"args\":{\"value\":";
        json += FormatDouble(point.value);
        json += "}}";
        WriteEvent(out, first, json);
      }
    }
  }
  out << "\n]\n";
}

void WriteEventLogJsonl(const ReferenceEventLog& log, std::ostream& out) {
  for (const WlmEvent& event : log.events()) {
    out << "{\"time\":" << FormatDouble(event.time) << ",\"type\":\""
        << WlmEventTypeToString(event.type)
        << "\",\"query\":" << event.query << ",\"workload\":\""
        << JsonEscape(event.workload) << "\",\"detail\":\""
        << JsonEscape(event.detail) << "\"}\n";
  }
}

}  // namespace reference

namespace {

using reference::ReferenceEventLog;
using reference::ReferenceProfileStore;
using reference::ReferenceTracer;

// ---------------------------------------------------------------- harness

constexpr int kScripts = 300;
constexpr int kSteps = 100;
constexpr QueryId kUnknownId = 999;

const char* const kWorkloads[] = {
    "oltp", "bi", "reporting-workload-with-a-name-beyond-small-strings",
    "quo\"ted\\name"};
const char* const kReasons[] = {
    "queue_full", "brownout", "codel",
    "a reason long enough to live on the heap, with \"quotes\""};
const char* const kOutcomeNames[] = {"completed", "killed", "aborted",
                                     "odd_outcome"};

std::string Format(const char* format, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// What the script exercised; asserted over all scripts at the end.
struct Coverage {
  int64_t trace_evictions = 0;
  int64_t profile_evictions = 0;
  int64_t event_evictions = 0;
  int64_t live_survivors = 0;  // live traces retained across an eviction
  int64_t flips = 0;
  int64_t clears = 0;
  int64_t refinishes = 0;  // terminal hooks on already-finished ids
  int64_t stray_hooks = 0;  // hooks on unknown or evicted ids
  int64_t synthetic = 0;
  int64_t free_texts = 0;  // generic string-API spans/instants
};

/// Both implementations plus the hook vocabulary of the Telemetry facade
/// and WorkloadManager::LogEvent: each hook makes the new side's calls
/// (slots, text codes) and the reference side's calls (the strings the
/// facade used to build).
class Lockstep {
 public:
  Lockstep(uint64_t seed, size_t max_traces, size_t max_profiles,
           size_t max_events)
      : rng_(seed),
        tracer_(max_traces),
        ref_tracer_(max_traces),
        profiles_(max_profiles),
        ref_profiles_(max_profiles),
        log_(max_events),
        ref_log_(max_events) {}

  void Step(Coverage& cov) {
    now_ += rng_.Bernoulli(0.2) ? 0.0 : rng_.Uniform(0.0, 0.5);
    const int64_t trace_evicted = tracer_.evicted();
    const int64_t profile_evicted = profiles_.evicted();
    const int64_t retained_events = static_cast<int64_t>(log_.size());
    const int64_t appended = log_.total_appended();
    const QueryId id = PickId();
    if (!tracer_.Lookup(id)) ++cov.stray_hooks;
    switch (rng_.UniformInt(0, 21)) {
      case 0:
      case 1:
      case 2:
        Submit(next_id_++);
        break;
      case 3:
        Submit(id);  // re-submission of a known or evicted id
        break;
      case 4:
        Admitted(id);
        break;
      case 5:
        Rejected(id);
        break;
      case 6:
        Requeued(id);
        break;
      case 7:
      case 8:
        Dispatch(id, rng_.Bernoulli(0.2));
        break;
      case 9:
        Suspend(id);
        break;
      case 10:
        RunSegment(id);
        break;
      case 11:
      case 12: {
        const std::optional<QueryTrace> before = tracer_.Find(id);
        if (before && before->finished) ++cov.refinishes;
        Terminal(id);
        break;
      }
      case 13:
        Throttle(id);
        break;
      case 14:
        Pause(id);
        Escalate(id);
        break;
      case 15:
        FaultAbortAndRetry(id);
        break;
      case 16:
        Shed(id);
        break;
      case 17:
        Synthetic();
        ++cov.synthetic;
        break;
      case 18:
        if (Flip()) ++cov.flips;
        break;
      case 19:
        GenericText(id);
        ++cov.free_texts;
        break;
      case 20:
        LogEvents(id);
        break;
      case 21:
        if (rng_.Bernoulli(0.3)) {
          log_.Clear();
          ref_log_.Clear();
          ++cov.clears;
        } else {
          LogEvents(id);
        }
        break;
    }
    cov.trace_evictions += tracer_.evicted() - trace_evicted;
    cov.profile_evictions += profiles_.evicted() - profile_evicted;
    const int64_t appended_now = log_.total_appended() - appended;
    cov.event_evictions += std::max<int64_t>(
        0, retained_events + appended_now - static_cast<int64_t>(log_.size()));
    if (tracer_.evicted() > trace_evicted ||
        profiles_.evicted() > profile_evicted) {
      for (const QueryTrace& trace : tracer_.Traces()) {
        if (!trace.finished && !IsSynthetic(trace.id)) ++cov.live_survivors;
      }
    }
  }

  /// Every read API and both exports agree.
  void Check() {
    // Tracer.
    ASSERT_EQ(tracer_.size(), ref_tracer_.size());
    ASSERT_EQ(tracer_.evicted(), ref_tracer_.evicted());
    const std::vector<QueryTrace> traces = tracer_.Traces();
    const std::vector<const QueryTrace*> ref_traces = ref_tracer_.Traces();
    ASSERT_EQ(traces.size(), ref_traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
      ExpectSameTrace(traces[i], *ref_traces[i]);
    }
    for (QueryId id : Ids()) {
      const std::optional<QueryTrace> trace = tracer_.Find(id);
      const QueryTrace* ref = ref_tracer_.Find(id);
      ASSERT_EQ(trace.has_value(), ref != nullptr) << "trace " << id;
      if (ref != nullptr) ExpectSameTrace(*trace, *ref);
    }
    std::ostringstream chrome, ref_chrome;
    WriteChromeTrace(tracer_, chrome);
    reference::WriteChromeTrace(ref_tracer_, ref_chrome, nullptr);
    ASSERT_EQ(chrome.str(), ref_chrome.str());

    // ProfileStore.
    ASSERT_EQ(profiles_.size(), ref_profiles_.size());
    ASSERT_EQ(profiles_.evicted(), ref_profiles_.evicted());
    ASSERT_EQ(profiles_.queue_lifo(), ref_profiles_.queue_lifo());
    const std::vector<QueryProfile> listed = profiles_.Profiles();
    const std::vector<const QueryProfile*> ref_listed =
        ref_profiles_.Profiles();
    ASSERT_EQ(listed.size(), ref_listed.size());
    for (size_t i = 0; i < listed.size(); ++i) {
      ExpectSameProfile(listed[i], *ref_listed[i]);
    }
    for (QueryId id : Ids()) {
      const std::optional<QueryProfile> profile = profiles_.Find(id);
      const QueryProfile* ref = ref_profiles_.Find(id);
      ASSERT_EQ(profile.has_value(), ref != nullptr) << "profile " << id;
      if (ref != nullptr) ExpectSameProfile(*profile, *ref);
      EXPECT_EQ(profiles_.OpenSegment(id), ref_profiles_.OpenSegment(id));
    }
    const std::map<std::string, ClassProfileRollup> rollups =
        profiles_.rollups();
    const std::map<std::string, ClassProfileRollup>& ref_rollups =
        ref_profiles_.rollups();
    ASSERT_EQ(rollups.size(), ref_rollups.size());
    for (const auto& [name, rollup] : ref_rollups) {
      ASSERT_EQ(rollups.count(name), 1u) << name;
      const ClassProfileRollup& mine = rollups.at(name);
      EXPECT_EQ(mine.count, rollup.count);
      EXPECT_EQ(mine.phase_seconds, rollup.phase_seconds);
      ExpectSameResources(mine.resources, rollup.resources);
    }

    // EventLog.
    ASSERT_EQ(log_.size(), ref_log_.size());
    ASSERT_EQ(log_.total_appended(), ref_log_.total_appended());
    const std::deque<WlmEvent>& ref_events = ref_log_.events();
    ExpectSameEvents(log_.events(),
                     std::vector<WlmEvent>(ref_events.begin(),
                                           ref_events.end()));
    for (size_t type = 0; type < kWlmEventTypeCount; ++type) {
      const auto t = static_cast<WlmEventType>(type);
      EXPECT_EQ(log_.CountOf(t), ref_log_.CountOf(t));
      ExpectSameEvents(log_.OfType(t), ref_log_.OfType(t));
    }
    for (QueryId id : Ids()) {
      ExpectSameEvents(log_.ForQuery(id), ref_log_.ForQuery(id));
    }
    const double begin = rng_.Uniform(0.0, now_ + 1.0);
    const double end = begin + rng_.Uniform(-1.0, 10.0);
    ExpectSameEvents(log_.InWindow(begin, end), ref_log_.InWindow(begin, end));
    std::ostringstream jsonl, ref_jsonl;
    WriteEventLogJsonl(log_, jsonl);
    reference::WriteEventLogJsonl(ref_log_, ref_jsonl);
    ASSERT_EQ(jsonl.str(), ref_jsonl.str());
  }

 private:
  static bool IsSynthetic(QueryId id) { return IsSyntheticQueryId(id); }

  /// The ids hooks pick from (the recent ones, plus the oldest that may
  /// be long evicted), one never used and the synthetic tracks.
  std::vector<QueryId> Ids() const {
    std::vector<QueryId> ids;
    for (QueryId id = 1; id < next_id_; ++id) {
      if (id <= 2 || id + 12 >= next_id_) ids.push_back(id);
    }
    ids.push_back(kUnknownId);
    for (int track = 0; track < 3; ++track) {
      ids.push_back(SyntheticTrackId(static_cast<SyntheticTrack>(track)));
    }
    return ids;
  }

  QueryId PickId() {
    if (next_id_ == 1 || rng_.Bernoulli(0.05)) return kUnknownId;
    // Mostly recent ids, sometimes long-evicted ones.
    const int64_t newest = static_cast<int64_t>(next_id_) - 1;
    const int64_t oldest =
        rng_.Bernoulli(0.8) ? std::max<int64_t>(1, newest - 6) : 1;
    return static_cast<QueryId>(rng_.UniformInt(oldest, newest));
  }

  template <typename T>
  const char* Pick(const T& options) {
    return options[rng_.UniformInt(0, static_cast<int64_t>(std::size(options)) - 1)];
  }

  std::string WorkloadOf(QueryId id) {
    return kWorkloads[id % std::size(kWorkloads)];
  }

  void Submit(QueryId id) {
    const std::string workload = WorkloadOf(id);
    const QueryKind kind =
        id % 2 == 0 ? QueryKind::kOltpTransaction : QueryKind::kBiQuery;
    const uint64_t journey = id % 3 == 0 ? id * 10 : 0;
    tracer_.GetOrCreate(id, workload, kind, now_);
    ref_tracer_.GetOrCreate(id, workload, kind, now_);
    profiles_.Begin(id, workload, kind, now_, journey);
    ref_profiles_.Begin(id, workload, kind, now_, journey);
    Event(WlmEventType::kSubmitted, id, "");
  }

  void Admitted(QueryId id) {
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.AddClosedSpan(trace, SpanKind::kAdmit, now_, now_,
                          TraceText::kAdmitted);
    tracer_.OpenSpan(trace, SpanKind::kQueue, now_);
    profiles_.OpenQueueWait(profiles_.Lookup(id), now_);
    ref_tracer_.AddClosedSpan(id, SpanKind::kAdmit, now_, now_, "admitted");
    ref_tracer_.OpenSpan(id, SpanKind::kQueue, now_);
    ref_profiles_.OpenQueueWait(id, now_);
  }

  void Rejected(QueryId id) {
    const std::string gate = Pick(kReasons);
    const std::string reason = Pick(kReasons);
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.AddClosedSpan(trace, SpanKind::kAdmit, now_, now_,
                          "rejected gate=" + gate + " reason=" + reason);
    tracer_.FinishTrace(trace, now_);
    profiles_.Finalize(profiles_.Lookup(id), now_, "rejected",
                       reason + " (gate=" + gate + ")");
    ref_tracer_.AddClosedSpan(id, SpanKind::kAdmit, now_, now_,
                              "rejected gate=" + gate + " reason=" + reason);
    ref_tracer_.FinishTrace(id, now_);
    ref_profiles_.Finalize(id, now_, "rejected",
                           reason + " (gate=" + gate + ")");
    Event(WlmEventType::kRejected, id, reason);
  }

  /// The facade's phase tile for an open wait that just ended.
  void TileOpenWait(QueryId id) {
    auto [phase, start] = profiles_.OpenSegment(id);
    if (phase >= 0 && now_ > start) {
      tracer_.AddClosedSpan(tracer_.Lookup(id), SpanKind::kPhase, start, now_,
                            TraceText(TraceText::kPhase, phase));
    }
    auto [ref_phase, ref_start] = ref_profiles_.OpenSegment(id);
    if (ref_phase >= 0 && now_ > ref_start) {
      ref_tracer_.AddClosedSpan(id, SpanKind::kPhase, ref_start, now_,
                                PhaseToString(static_cast<Phase>(ref_phase)));
    }
  }

  void Requeued(QueryId id) {
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.CloseExecutionSegment(trace, now_, TraceText::kOutcomeResubmitted);
    tracer_.OpenSpan(trace, SpanKind::kQueue, now_, TraceText::kResubmit);
    ref_tracer_.CloseExecutionSegment(id, now_, "outcome=resubmitted");
    ref_tracer_.OpenSpan(id, SpanKind::kQueue, now_, "resubmit");
    TileOpenWait(id);
    profiles_.CountRequeue(profiles_.Lookup(id));
    profiles_.OpenQueueWait(profiles_.Lookup(id), now_);
    ref_profiles_.CountRequeue(id);
    ref_profiles_.OpenQueueWait(id, now_);
    Event(WlmEventType::kResubmitted, id, "after kill");
  }

  void Dispatch(QueryId id, bool resumed) {
    const Tracer::Slot trace = tracer_.Lookup(id);
    const SpanKind wait =
        resumed ? SpanKind::kSuspendedWait : SpanKind::kQueue;
    tracer_.CloseSpan(trace, wait, now_);
    tracer_.OpenSpan(trace, SpanKind::kExecute, now_,
                     resumed ? TraceText(TraceText::kResumed) : TraceText());
    ref_tracer_.CloseSpan(id, wait, now_);
    ref_tracer_.OpenSpan(id, SpanKind::kExecute, now_,
                         resumed ? "resumed" : "");
    TileOpenWait(id);
    profiles_.MarkDispatched(profiles_.Lookup(id), now_);
    ref_profiles_.MarkDispatched(id, now_);
    Event(resumed ? WlmEventType::kResumed : WlmEventType::kDispatched, id,
          resumed ? "suspend_resume" : "");
  }

  void Suspend(QueryId id) {
    tracer_.OpenSpan(id, SpanKind::kSuspendFlush, now_, "strategy=dump");
    ref_tracer_.OpenSpan(id, SpanKind::kSuspendFlush, now_, "strategy=dump");
    now_ += rng_.Uniform(0.0, 0.2);
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.CloseSpan(trace, SpanKind::kSuspendFlush, now_);
    tracer_.CloseExecutionSegment(trace, now_, TraceText::kOutcomeSuspended);
    tracer_.OpenSpan(trace, SpanKind::kSuspendedWait, now_);
    profiles_.CountSuspend(profiles_.Lookup(id));
    profiles_.OpenWait(profiles_.Lookup(id), Phase::kSuspendedWait, now_);
    ref_tracer_.CloseSpan(id, SpanKind::kSuspendFlush, now_);
    ref_tracer_.CloseExecutionSegment(id, now_, "outcome=suspended");
    ref_tracer_.OpenSpan(id, SpanKind::kSuspendedWait, now_);
    ref_profiles_.CountSuspend(id);
    ref_profiles_.OpenWait(id, Phase::kSuspendedWait, now_);
    Event(WlmEventType::kSuspended, id, "");
  }

  QueryOutcome RandomOutcome() {
    QueryOutcome outcome;
    auto maybe = [this](double hi) {
      return rng_.Bernoulli(0.4) ? 0.0 : rng_.Uniform(0.0, hi);
    };
    outcome.dispatch_time = now_ - rng_.Uniform(0.0, 1.0);
    outcome.cpu_used = maybe(3.0);
    outcome.io_used = maybe(500.0);
    outcome.memory_granted_mb = maybe(512.0);
    outcome.lock_hold_seconds = maybe(1.0);
    outcome.lock_wait_seconds = maybe(0.5);
    outcome.spill_factor = 1.0 + maybe(2.0);
    outcome.buffer_hit_ratio = maybe(1.0);
    outcome.phases.lock_wait_seconds = maybe(0.3);
    outcome.phases.cpu_run_seconds = maybe(0.3);
    outcome.phases.io_stall_seconds = maybe(0.3);
    outcome.phases.memory_stall_seconds = maybe(0.3);
    outcome.phases.throttled_seconds = maybe(0.3);
    outcome.phases.suspend_flush_seconds = maybe(0.3);
    return outcome;
  }

  void RunSegment(QueryId id) {
    const QueryOutcome outcome = RandomOutcome();
    profiles_.AccumulateSegment(profiles_.Lookup(id), outcome);
    ref_profiles_.AccumulateSegment(id, outcome);
    const std::pair<Phase, double> tiles[] = {
        {Phase::kLockWait, outcome.phases.lock_wait_seconds},
        {Phase::kCpuRun, outcome.phases.cpu_run_seconds},
        {Phase::kIoStall, outcome.phases.io_stall_seconds},
        {Phase::kMemoryStall, outcome.phases.memory_stall_seconds},
        {Phase::kThrottled, outcome.phases.throttled_seconds},
        {Phase::kSuspendFlush, outcome.phases.suspend_flush_seconds},
    };
    const Tracer::Slot trace = tracer_.Lookup(id);
    Span batch[std::size(tiles)];
    size_t count = 0;
    double cursor = outcome.dispatch_time;
    for (const auto& [phase, seconds] : tiles) {
      if (seconds <= 0.0) continue;
      tracer_.AddClosedSpan(trace, SpanKind::kPhase, cursor, cursor + seconds,
                            TraceText(TraceText::kPhase,
                                      static_cast<int>(phase)));
      batch[count++] = Span{SpanKind::kPhase, cursor, cursor + seconds,
                            PhaseToString(phase)};
      cursor += seconds;
    }
    if (count > 0) ref_tracer_.AddClosedSpans(id, batch, count);
  }

  void Terminal(QueryId id) {
    const QueryOutcome outcome = RandomOutcome();
    const char* name = Pick(kOutcomeNames);
    const Tracer::Slot trace = tracer_.Lookup(id);
    if (outcome.lock_wait_seconds > 0.0) {
      const double end =
          std::min(outcome.dispatch_time + outcome.lock_wait_seconds, now_);
      tracer_.AddClosedSpan(trace, SpanKind::kLockWait, outcome.dispatch_time,
                            end);
      ref_tracer_.AddClosedSpan(id, SpanKind::kLockWait,
                                outcome.dispatch_time, end);
    }
    tracer_.CloseExecutionSegment(trace, now_, name, outcome);
    tracer_.FinishTrace(trace, now_);
    profiles_.Finalize(profiles_.Lookup(id), now_, name, "");
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "outcome=%s cpu=%.3f io=%.0f spill=%.2f buffer_hit=%.2f",
                  name, outcome.cpu_used, outcome.io_used,
                  outcome.spill_factor, outcome.buffer_hit_ratio);
    ref_tracer_.CloseExecutionSegment(id, now_, detail);
    ref_tracer_.FinishTrace(id, now_);
    ref_profiles_.Finalize(id, now_, name, "");
    Event(WlmEventType::kCompleted, id, "");
  }

  void Throttle(QueryId id) {
    const double duty = rng_.Bernoulli(0.3) ? 1.0 : rng_.Uniform(0.05, 1.0);
    const Tracer::Slot trace = tracer_.Lookup(id);
    const TraceText text(TraceText::kDuty, duty);
    tracer_.CloseSpan(trace, SpanKind::kThrottle, now_);
    if (duty < 1.0) tracer_.OpenSpan(trace, SpanKind::kThrottle, now_, text);
    tracer_.Instant(trace, TraceText::kThrottle, now_, text);
    const std::string detail = Format("duty=%.3f", duty);
    ref_tracer_.CloseSpan(id, SpanKind::kThrottle, now_);
    if (duty < 1.0) ref_tracer_.OpenSpan(id, SpanKind::kThrottle, now_, detail);
    ref_tracer_.Instant(id, "throttle", now_, detail);
    Event(WlmEventType::kThrottled, id, "duty=" + std::to_string(duty));
  }

  void Pause(QueryId id) {
    const double seconds = rng_.Uniform(0.0, 2.0);
    tracer_.AddClosedSpan(id, SpanKind::kPause, now_, now_ + seconds,
                          TraceText(TraceText::kSeconds, seconds));
    ref_tracer_.AddClosedSpan(id, SpanKind::kPause, now_, now_ + seconds,
                              Format("seconds=%.3f", seconds));
    Event(WlmEventType::kPaused, id, std::to_string(seconds) + "s");
  }

  void Escalate(QueryId id) {
    tracer_.Instant(id, "escalate", now_, "rung=kill");
    tracer_.Instant(id, "reprioritize", now_, "priority=low");
    ref_tracer_.Instant(id, "escalate", now_, "rung=kill");
    ref_tracer_.Instant(id, "reprioritize", now_, "priority=low");
    Event(WlmEventType::kReprioritized, id, "low");
  }

  void FaultAbortAndRetry(QueryId id) {
    const std::string reason = Pick(kReasons);
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.Instant(trace, TraceText::kFaultAbort, now_, reason);
    tracer_.CloseExecutionSegment(trace, now_, TraceText::kOutcomeFaultAbort);
    ref_tracer_.Instant(id, "fault_abort", now_, reason);
    ref_tracer_.CloseExecutionSegment(id, now_, "outcome=fault_abort");
    const double delay = rng_.Uniform(0.0, 1.0);
    tracer_.Instant(id, TraceText::kFaultRetry, now_,
                    TraceText(TraceText::kBackoff, delay));
    profiles_.OpenWait(id, Phase::kRetryBackoff, now_);
    ref_tracer_.Instant(id, "fault_retry", now_,
                        Format("backoff=%.3fs", delay));
    ref_profiles_.OpenWait(id, Phase::kRetryBackoff, now_);
    tracer_.Instant(id, TraceText::kRetryDenied, now_, "budget");
    ref_tracer_.Instant(id, "retry_denied", now_, "budget");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "fault retry backoff=%.3fs", delay);
    Event(WlmEventType::kResubmitted, id, buf);
  }

  void Shed(QueryId id) {
    const std::string reason = Pick(kReasons);
    const Tracer::Slot trace = tracer_.Lookup(id);
    tracer_.CloseSpan(trace, SpanKind::kQueue, now_, " shed=" + reason);
    tracer_.Instant(trace, TraceText::kShed, now_, reason);
    tracer_.FinishTrace(trace, now_);
    ref_tracer_.CloseSpan(id, SpanKind::kQueue, now_, " shed=" + reason);
    ref_tracer_.Instant(id, "shed", now_, reason);
    ref_tracer_.FinishTrace(id, now_);
    TileOpenWait(id);
    profiles_.Finalize(profiles_.Lookup(id), now_, "shed", reason);
    ref_profiles_.Finalize(id, now_, "shed", reason);
    Event(WlmEventType::kShed, id, reason);
  }

  void Synthetic() {
    const auto track = static_cast<SyntheticTrack>(rng_.UniformInt(0, 2));
    const QueryId id = SyntheticTrackId(track);
    const std::string name = SyntheticTrackName(track);
    tracer_.GetOrCreate(id, name, QueryKind::kUtility, now_);
    ref_tracer_.GetOrCreate(id, name, QueryKind::kUtility, now_);
    const std::string detail = std::string(Pick(kReasons)) + " window";
    const double start = now_ - rng_.Uniform(0.0, 3.0);
    tracer_.Instant(id, "fault_begin", now_, detail);
    tracer_.AddClosedSpan(id, SpanKind::kFault, start, now_, detail);
    ref_tracer_.Instant(id, "fault_begin", now_, detail);
    ref_tracer_.AddClosedSpan(id, SpanKind::kFault, start, now_, detail);
    WlmEvent event;
    event.time = now_;
    event.type = WlmEventType::kFaultInjected;
    event.query = id;
    event.workload = name;
    event.detail = detail;
    log_.Append(event);
    ref_log_.Append(event);
  }

  bool Flip() {
    const bool before = profiles_.queue_lifo();
    const bool lifo = rng_.Bernoulli(0.5);
    profiles_.SetQueueDiscipline(lifo, now_);
    ref_profiles_.SetQueueDiscipline(lifo, now_);
    return profiles_.queue_lifo() != before;
  }

  /// The string API: free text on arbitrary kinds, including appends to
  /// spans that already carry a code.
  void GenericText(QueryId id) {
    const auto kind = static_cast<SpanKind>(rng_.UniformInt(0, 10));
    const std::string text = rng_.Bernoulli(0.3) ? "" : Pick(kReasons);
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        tracer_.OpenSpan(id, kind, now_, text);
        ref_tracer_.OpenSpan(id, kind, now_, text);
        break;
      case 1:
        tracer_.CloseSpan(id, kind, now_, text);
        ref_tracer_.CloseSpan(id, kind, now_, text);
        break;
      case 2: {
        const std::string name = Pick(kReasons);
        tracer_.Instant(id, name, now_, text);
        ref_tracer_.Instant(id, name, now_, text);
        break;
      }
      default:
        tracer_.CloseExecutionSegment(id, now_, text);
        ref_tracer_.CloseExecutionSegment(id, now_, text);
        break;
    }
  }

  /// A burst of control-plane events for `id`, both append forms.
  void LogEvents(QueryId id) {
    const int count = static_cast<int>(rng_.UniformInt(1, 6));
    for (int i = 0; i < count; ++i) {
      const auto type = static_cast<WlmEventType>(
          rng_.UniformInt(0, kWlmEventTypeCount - 1));
      Event(type, rng_.Bernoulli(0.7) ? id : PickId(),
            rng_.Bernoulli(0.5) ? "" : Pick(kReasons));
    }
  }

  void Event(WlmEventType type, QueryId id, const std::string& detail) {
    const std::string workload = WorkloadOf(id);
    if (rng_.Bernoulli(0.5)) {
      log_.Append(now_, type, id, workload, detail);
    } else {
      WlmEvent event;
      event.time = now_;
      event.type = type;
      event.query = id;
      event.workload = workload;
      event.detail = detail;
      log_.Append(std::move(event));
    }
    WlmEvent event;
    event.time = now_;
    event.type = type;
    event.query = id;
    event.workload = workload;
    event.detail = detail;
    ref_log_.Append(std::move(event));
  }

  static void ExpectSameTrace(const QueryTrace& a, const QueryTrace& b) {
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tid, b.tid);
    EXPECT_EQ(a.start_time, b.start_time);
    EXPECT_EQ(a.finished, b.finished);
    ASSERT_EQ(a.spans.size(), b.spans.size()) << "trace " << a.id;
    for (size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].kind, b.spans[i].kind);
      EXPECT_EQ(a.spans[i].start, b.spans[i].start);
      EXPECT_EQ(a.spans[i].end, b.spans[i].end);
      EXPECT_EQ(a.spans[i].detail, b.spans[i].detail);
    }
    ASSERT_EQ(a.instants.size(), b.instants.size()) << "trace " << a.id;
    for (size_t i = 0; i < a.instants.size(); ++i) {
      EXPECT_EQ(a.instants[i].time, b.instants[i].time);
      EXPECT_EQ(a.instants[i].name, b.instants[i].name);
      EXPECT_EQ(a.instants[i].detail, b.instants[i].detail);
    }
  }

  static void ExpectSameResources(const ResourceAttribution& a,
                                  const ResourceAttribution& b) {
    EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
    EXPECT_EQ(a.io_ops, b.io_ops);
    EXPECT_EQ(a.peak_memory_mb, b.peak_memory_mb);
    EXPECT_EQ(a.lock_hold_seconds, b.lock_hold_seconds);
    EXPECT_EQ(a.spill_factor, b.spill_factor);
    EXPECT_EQ(a.buffer_hit_ratio, b.buffer_hit_ratio);
  }

  static void ExpectSameProfile(const QueryProfile& a, const QueryProfile& b) {
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.journey, b.journey);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.arrival_time, b.arrival_time);
    EXPECT_EQ(a.first_dispatch_time, b.first_dispatch_time);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.phase_seconds, b.phase_seconds);
    ExpectSameResources(a.resources, b.resources);
    EXPECT_EQ(a.run_segments, b.run_segments);
    EXPECT_EQ(a.suspend_count, b.suspend_count);
    EXPECT_EQ(a.requeue_count, b.requeue_count);
  }

  static void ExpectSameEvents(const std::vector<WlmEvent>& a,
                               const std::vector<WlmEvent>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].type, b[i].type);
      EXPECT_EQ(a[i].query, b[i].query);
      EXPECT_EQ(a[i].workload, b[i].workload);
      EXPECT_EQ(a[i].detail, b[i].detail);
    }
  }

  Rng rng_;
  double now_ = 0.0;
  QueryId next_id_ = 1;
  Tracer tracer_;
  ReferenceTracer ref_tracer_;
  ProfileStore profiles_;
  ReferenceProfileStore ref_profiles_;
  EventLog log_;
  ReferenceEventLog ref_log_;
};

// The scripts run in kShards parameterized instances so ctest can spread
// them over its workers; each shard asserts its own coverage.
constexpr int kShards = 4;

class TelemetryStoreEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TelemetryStoreEquivalenceTest, MatchesReferenceOnHookScripts) {
  const size_t caps[] = {0, 1, 3, 64};
  const size_t event_caps[] = {0, 1, 3, 128};
  Coverage cov;
  for (int script = GetParam(); script < kScripts; script += kShards) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(script);
    Rng pick(seed * 7919);
    const size_t max_traces = caps[pick.UniformInt(0, 3)];
    const size_t max_profiles = caps[pick.UniformInt(0, 3)];
    const size_t max_events = event_caps[pick.UniformInt(0, 3)];
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " caps " << max_traces << "/"
                 << max_profiles << "/" << max_events);
    Lockstep side(seed, max_traces, max_profiles, max_events);
    for (int step = 0; step < kSteps; ++step) {
      side.Step(cov);
      side.Check();
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "first divergence at step " << step;
        return;
      }
    }
  }
  std::cout << "evictions (traces/profiles/events): " << cov.trace_evictions
            << " / " << cov.profile_evictions << " / " << cov.event_evictions
            << ", live survivors " << cov.live_survivors << ", flips "
            << cov.flips << ", clears " << cov.clears << ", re-finishes "
            << cov.refinishes << ", stray hooks " << cov.stray_hooks
            << ", synthetic " << cov.synthetic << ", free texts "
            << cov.free_texts << "\n";
  // Each shard must have reached the paths the rewrite changed.
  EXPECT_GT(cov.trace_evictions, 250);
  EXPECT_GT(cov.profile_evictions, 250);
  EXPECT_GT(cov.event_evictions, 2500);
  EXPECT_GT(cov.live_survivors, 250);
  EXPECT_GT(cov.flips, 100);
  EXPECT_GT(cov.clears, 50);
  EXPECT_GT(cov.refinishes, 100);
  EXPECT_GT(cov.stray_hooks, 1000);
  EXPECT_GT(cov.synthetic, 200);
  EXPECT_GT(cov.free_texts, 200);
}

INSTANTIATE_TEST_SUITE_P(Shards, TelemetryStoreEquivalenceTest,
                         ::testing::Range(0, kShards));

// Synthetic tracks never finish, so eviction never reaches them: each keeps
// its newest max_traces spans and instants instead, and their texts survive
// the side-pool compaction that reclaims the dropped entries' strings.
TEST(TracerSyntheticTrackTest, KeepsTheNewestMaxTracesSpansAndInstants) {
  constexpr int kCap = 4;
  Tracer tracer(kCap);
  const QueryId track = SyntheticTrackId(SyntheticTrack::kOverload);
  tracer.GetOrCreate(track, "overload", QueryKind::kUtility, 0.0);
  tracer.GetOrCreate(7, "oltp", QueryKind::kOltpTransaction, 0.0);
  for (int step = 0; step < 3 * kCap; ++step) {
    const std::string detail = "breaker window " + std::to_string(step);
    tracer.Instant(track, "breaker_open", step, detail);
    tracer.AddClosedSpan(track, SpanKind::kOverload, step, step + 0.5, detail);
    tracer.Instant(7, "reprioritize", step, detail);
  }
  const std::optional<QueryTrace> trace = tracer.Find(track);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->spans.size(), static_cast<size_t>(kCap));
  ASSERT_EQ(trace->instants.size(), static_cast<size_t>(kCap));
  for (int i = 0; i < kCap; ++i) {
    const int step = 2 * kCap + i;
    const std::string detail = "breaker window " + std::to_string(step);
    EXPECT_DOUBLE_EQ(trace->spans[i].start, step);
    EXPECT_EQ(trace->spans[i].detail, detail);
    EXPECT_DOUBLE_EQ(trace->instants[i].time, step);
    EXPECT_EQ(trace->instants[i].name, "breaker_open");
    EXPECT_EQ(trace->instants[i].detail, detail);
  }
  // A query's own trace is bounded by eviction, not capped.
  EXPECT_EQ(tracer.Find(7)->instants.size(), static_cast<size_t>(3 * kCap));
}

}  // namespace
}  // namespace wlm
