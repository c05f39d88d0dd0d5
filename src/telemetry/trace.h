#ifndef WLM_TELEMETRY_TRACE_H_
#define WLM_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"
#include "telemetry/bounded_store.h"

namespace wlm {

/// Phases of a request's life the tracer times. Span kinds on one query
/// either follow each other (queue / execute segments) or nest inside an
/// execute segment (throttle, pause, lock-wait, suspend-flush), which is
/// what lets the Chrome trace exporter emit them as stacked slices.
enum class SpanKind {
  kQueue,          // waiting in the manager's queue for dispatch
  kAdmit,          // admission decision (instantaneous in simulated time)
  kExecute,        // one engine execution segment (dispatch -> outcome)
  kThrottle,       // constant-throttle window (duty < 1)
  kPause,          // interrupt-throttle pause
  kLockWait,       // lock acquisition wait at the start of a segment
  kSuspendFlush,   // suspend requested -> state flush finished
  kSuspendedWait,  // suspended, waiting in the queue for resume
  kFault,          // fault window on the synthetic fault track (query 0)
  kOverload,       // overload episode (breaker open window, brownout
                   // level) on the synthetic overload track
  kPhase,          // latency-decomposition tile (detail = phase name);
                   // tiles partition a queue or execute segment and render
                   // on their own pid so they never straddle inner spans
};

/// Number of SpanKind values (keep in sync with the enum).
inline constexpr size_t kSpanKindCount = 11;

const char* SpanKindToString(SpanKind kind);

/// One timed phase of a query. `end < 0` means still open.
struct Span {
  SpanKind kind = SpanKind::kQueue;
  double start = 0.0;
  double end = -1.0;
  std::string detail;

  bool open() const { return end < 0.0; }
  double duration() const { return open() ? 0.0 : end - start; }
};

/// Point event on a query's timeline (kill issued, priority change, ...).
struct TraceInstant {
  double time = 0.0;
  std::string name;
  std::string detail;
};

/// Full lifecycle record of one request: every span and instant, in the
/// order they were opened. This is the per-query view the Monitor's
/// aggregate series cannot give.
struct QueryTrace {
  QueryId id = 0;
  std::string workload;
  QueryKind kind = QueryKind::kBiQuery;
  /// Display track for the Chrome trace exporter, assigned in creation
  /// (submission) order.
  int tid = 0;
  double start_time = 0.0;
  bool finished = false;
  std::vector<Span> spans;
  std::vector<TraceInstant> instants;

  /// Spans of one kind, in open order.
  std::vector<const Span*> SpansOfKind(SpanKind kind) const;
  /// Number of distinct span kinds present.
  size_t DistinctKinds() const;
  /// Sum of closed-span durations of one kind.
  double TotalOfKind(SpanKind kind) const;
};

/// What a hook records as a span detail or an instant's name or detail: a
/// fixed code (with one raw number for the formatted ones) or free text,
/// which is copied into the trace's side pool. The string is built only by
/// the read views, so the hot path neither formats nor allocates. Strings
/// convert implicitly to free text (empty -> kNone).
struct TraceText {
  enum Code : uint8_t {
    kNone,
    kFree,
    kPhase,    // PhaseToString(num)
    kDuty,     // "duty=%.3f"
    kSeconds,  // "seconds=%.3f"
    kBackoff,  // "backoff=%.3fs"
    kAdmitted,
    kResubmit,
    kResumed,
    kOutcomeResubmitted,
    kOutcomeSuspended,
    kOutcomeFaultAbort,
    kThrottle,
    kShed,
    kFaultAbort,
    kFaultRetry,
    kRetryDenied,
    kCompleted,
    kKilled,
    kAborted,
    kTerminal,  // internal: the trace's terminal-outcome detail
  };

  TraceText() = default;
  TraceText(Code code, double num = 0.0) : code(code), num(num) {}
  TraceText(std::string_view text)
      : code(text.empty() ? kNone : kFree), free(text) {}
  TraceText(const std::string& text) : TraceText(std::string_view(text)) {}
  TraceText(const char* text) : TraceText(std::string_view(text)) {}

  Code code = kNone;
  double num = 0.0;
  std::string_view free;
};

/// Base of the reserved synthetic-id block: the topmost 2^20 ids of the
/// QueryId space. Real query ids are assigned sequentially from small
/// integers and the WorkloadManager rejects submissions inside the block,
/// so a synthetic track id can never alias a live query (the old
/// sentinels — 0 for faults, 0xE000... for overload — could).
inline constexpr QueryId kSyntheticQueryIdBase = 0xFFFFFFFFFFF00000ULL;

constexpr bool IsSyntheticQueryId(QueryId id) {
  return id >= kSyntheticQueryIdBase;
}

/// Accumulates per-query traces as fixed-size records behind a flat
/// id -> slot index. Bounded by `max_traces`: once the limit is reached the
/// oldest *finished* trace is evicted per new trace, in finished order
/// (live queries are never dropped; their count is bounded by the MPL
/// anyway). An evicted slot is reused as is: its span, instant and
/// side-pool buffers keep their capacity, so a full tracer allocates
/// nothing per query and eviction never destroys a string.
///
/// Synthetic tracks (ids in the synthetic block) never finish, so eviction
/// never reaches them: each keeps its newest `max_traces` spans and
/// instants, and its side pool is compacted as the dropped entries'
/// strings pile up.
///
/// Hooks resolve a query's slot once (Lookup / GetOrCreate) and record
/// through it; the QueryId overloads do one lookup each. A slot stays
/// valid until the next GetOrCreate. Find/Traces build QueryTrace views.
class Tracer {
 public:
  /// Position of a retained trace; empty (false) when the id is unknown.
  struct Slot {
    uint32_t index = SlotIndex::kNone;
    explicit operator bool() const { return index != SlotIndex::kNone; }
  };

  explicit Tracer(size_t max_traces = 8192);

  /// Creates (or finds) the trace of `id`.
  Slot GetOrCreate(QueryId id, const std::string& workload, QueryKind kind,
                   double now);
  Slot Lookup(QueryId id) const { return Slot{index_.Find(id)}; }
  /// View of the trace of `id` (nullopt when not retained).
  std::optional<QueryTrace> Find(QueryId id) const;

  void OpenSpan(Slot slot, SpanKind kind, double now, TraceText detail = {});
  /// Closes the most recent open span of `kind`; no-op when none is open.
  /// `append` is appended to the span's detail (space-separated).
  void CloseSpan(Slot slot, SpanKind kind, double now, TraceText append = {});
  /// Records an already-closed span (used when the duration is only known
  /// after the fact, e.g. lock waits reported with the outcome). Skipped
  /// when end < start.
  void AddClosedSpan(Slot slot, SpanKind kind, double start, double end,
                     TraceText detail = {});
  void Instant(Slot slot, TraceText name, double now, TraceText detail = {});
  /// Closes the open execute span (appending `append`) and closes or
  /// clamps the inner throttle/pause/lock-wait spans to `now`, so a
  /// pre-recorded pause window never outlives the segment it belongs to.
  void CloseExecutionSegment(Slot slot, double now, TraceText append);
  /// Terminal form: appends "outcome=<name> cpu=.. io=.. spill=..
  /// buffer_hit=..", kept as the outcome's raw numbers until read.
  void CloseExecutionSegment(Slot slot, double now, const char* outcome_name,
                             const QueryOutcome& outcome);
  /// Terminal bookkeeping: closes every open span at `now` and clamps any
  /// span end past `now` back to it (a pre-recorded pause window may
  /// outlive a kill), keeping the trace nestable.
  void FinishTrace(Slot slot, double now);

  // QueryId forms of the recording calls.
  void OpenSpan(QueryId id, SpanKind kind, double now, TraceText detail = {}) {
    OpenSpan(Lookup(id), kind, now, detail);
  }
  void CloseSpan(QueryId id, SpanKind kind, double now,
                 TraceText append = {}) {
    CloseSpan(Lookup(id), kind, now, append);
  }
  void AddClosedSpan(QueryId id, SpanKind kind, double start, double end,
                     TraceText detail = {}) {
    AddClosedSpan(Lookup(id), kind, start, end, detail);
  }
  void Instant(QueryId id, TraceText name, double now,
               TraceText detail = {}) {
    Instant(Lookup(id), name, now, detail);
  }
  void CloseExecutionSegment(QueryId id, double now, TraceText append) {
    CloseExecutionSegment(Lookup(id), now, append);
  }
  void FinishTrace(QueryId id, double now) { FinishTrace(Lookup(id), now); }

  /// All traces, in creation (tid) order.
  std::vector<QueryTrace> Traces() const;
  size_t size() const { return records_.size() - free_.size(); }
  int64_t evicted() const { return evicted_; }

 private:
  /// A recorded text: the code plus its number, or the side-pool index of
  /// free text (kFree).
  struct TextRecord {
    double num = 0.0;
    uint32_t pool = 0;
    TraceText::Code code = TraceText::kNone;
  };
  struct SpanRecord {
    double start;
    double end;
    TextRecord detail;
    SpanKind kind;
  };
  struct InstantRecord {
    double time;
    TextRecord name;
    TextRecord detail;
  };
  struct Record {
    QueryId id = 0;
    double start_time = 0.0;
    int tid = 0;
    uint32_t workload = 0;
    QueryKind kind = QueryKind::kBiQuery;
    bool in_use = false;
    bool finished = false;
    bool has_terminal = false;
    // Raw numbers behind the kTerminal text.
    TextRecord outcome;
    double cpu = 0.0;
    double io = 0.0;
    double spill = 0.0;
    double buffer_hit = 0.0;
    std::vector<SpanRecord> spans;
    std::vector<InstantRecord> instants;
    // Side pool of free text; strings past pool_used keep their capacity.
    std::vector<std::string> pool;
    uint32_t pool_used = 0;
  };

  TextRecord Store(Record& record, const TraceText& text);
  /// Keeps a synthetic track within `max_traces_` spans and instants.
  void Bound(Record& record);
  void Append(Record& record, TextRecord& to, const TraceText& text);
  void Render(const Record& record, const TextRecord& text,
              std::string& out) const;
  std::string Render(const Record& record, const TextRecord& text) const {
    std::string out;
    Render(record, text, out);
    return out;
  }
  QueryTrace Materialize(const Record& record) const;

  size_t max_traces_;
  int next_tid_ = 1;
  int64_t evicted_ = 0;
  SlotIndex index_;
  std::vector<Record> records_;
  std::vector<uint32_t> free_;    // slots evicted without reuse
  FifoRing<uint32_t> finished_;  // finished slots, oldest first
  NameTable workloads_;
  std::vector<uint32_t> remap_;  // Bound's pool compaction scratch
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_TRACE_H_
