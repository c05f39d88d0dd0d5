#include "telemetry/trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "telemetry/profile.h"

namespace wlm {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kAdmit:
      return "admit";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kThrottle:
      return "throttle";
    case SpanKind::kPause:
      return "pause";
    case SpanKind::kLockWait:
      return "lock-wait";
    case SpanKind::kSuspendFlush:
      return "suspend-flush";
    case SpanKind::kSuspendedWait:
      return "suspended";
    case SpanKind::kFault:
      return "fault";
    case SpanKind::kOverload:
      return "overload";
    case SpanKind::kPhase:
      return "phase";
  }
  return "?";
}

std::vector<const Span*> QueryTrace::SpansOfKind(SpanKind kind) const {
  std::vector<const Span*> out;
  for (const Span& span : spans) {
    if (span.kind == kind) out.push_back(&span);
  }
  return out;
}

size_t QueryTrace::DistinctKinds() const {
  std::array<bool, kSpanKindCount> seen{};
  size_t distinct = 0;
  for (const Span& span : spans) {
    auto index = static_cast<size_t>(span.kind);
    if (!seen[index]) {
      seen[index] = true;
      ++distinct;
    }
  }
  return distinct;
}

double QueryTrace::TotalOfKind(SpanKind kind) const {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.kind == kind && !span.open()) total += span.duration();
  }
  return total;
}

namespace {

// Text of each fixed code (the printf format for the numeric ones),
// indexed by TraceText::Code.
constexpr const char* kTexts[] = {
    "",                     // kNone
    "",                     // kFree
    "",                     // kPhase
    "duty=%.3f",            // kDuty
    "seconds=%.3f",         // kSeconds
    "backoff=%.3fs",        // kBackoff
    "admitted",             // kAdmitted
    "resubmit",             // kResubmit
    "resumed",              // kResumed
    "outcome=resubmitted",  // kOutcomeResubmitted
    "outcome=suspended",    // kOutcomeSuspended
    "outcome=fault_abort",  // kOutcomeFaultAbort
    "throttle",             // kThrottle
    "shed",                 // kShed
    "fault_abort",          // kFaultAbort
    "fault_retry",          // kFaultRetry
    "retry_denied",         // kRetryDenied
    "completed",            // kCompleted
    "killed",               // kKilled
    "aborted",              // kAborted
    "",                     // kTerminal
};
static_assert(std::size(kTexts) == TraceText::kTerminal + 1);

TraceText OutcomeText(const char* name) {
  for (TraceText::Code code :
       {TraceText::kCompleted, TraceText::kKilled, TraceText::kAborted}) {
    if (std::strcmp(name, kTexts[code]) == 0) return TraceText(code);
  }
  return TraceText(name);
}

bool IsInnerKind(SpanKind kind) {
  return kind == SpanKind::kThrottle || kind == SpanKind::kPause ||
         kind == SpanKind::kLockWait;
}

}  // namespace

Tracer::Tracer(size_t max_traces) : max_traces_(max_traces) {
  records_.reserve(ReserveBound(max_traces_));
}

Tracer::Slot Tracer::GetOrCreate(QueryId id, const std::string& workload,
                                 QueryKind kind, double now) {
  const uint32_t found = index_.Find(id);
  if (found != SlotIndex::kNone) return Slot{found};
  while (size() >= max_traces_ && !finished_.empty()) {
    const uint32_t victim = finished_.front();
    finished_.pop_front();
    index_.Erase(records_[victim].id);
    records_[victim].in_use = false;
    free_.push_back(victim);
    ++evicted_;
  }
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Record& record = records_[slot];
  record.id = id;
  record.start_time = now;
  record.tid = next_tid_++;
  record.workload = workloads_.Intern(workload);
  record.kind = kind;
  record.in_use = true;
  record.finished = false;
  record.has_terminal = false;
  record.spans.clear();
  record.instants.clear();
  record.pool_used = 0;
  // A healthy query records ~8 spans plus up to 6 phase tiles; one
  // reservation per slot (kept across reuse) spares the growth churn.
  record.spans.reserve(16);
  index_.Insert(id, slot);
  return Slot{slot};
}

std::optional<QueryTrace> Tracer::Find(QueryId id) const {
  const Slot slot = Lookup(id);
  if (!slot) return std::nullopt;
  return Materialize(records_[slot.index]);
}

Tracer::TextRecord Tracer::Store(Record& record, const TraceText& text) {
  TextRecord out;
  out.code = text.code;
  out.num = text.num;
  if (text.code == TraceText::kFree) {
    if (record.pool_used == record.pool.size()) record.pool.emplace_back();
    record.pool[record.pool_used].assign(text.free);
    out.pool = record.pool_used++;
  }
  return out;
}

void Tracer::Bound(Record& record) {
  if (!IsSyntheticQueryId(record.id)) return;
  if (record.spans.size() > max_traces_) {
    record.spans.erase(record.spans.begin());
  }
  if (record.instants.size() > max_traces_) {
    record.instants.erase(record.instants.begin());
  }
  // The retained entries name at most 3 * max_traces_ + 1 pool strings;
  // past 4 * max_traces_ + 4, move them to the front, in pool order, and
  // renumber their references. Dropped strings keep their capacity.
  if (record.pool_used <= 4 * max_traces_ + 4) return;
  auto for_each_text = [&record](auto&& fn) {
    for (SpanRecord& span : record.spans) fn(span.detail);
    for (InstantRecord& instant : record.instants) {
      fn(instant.name);
      fn(instant.detail);
    }
    if (record.has_terminal) fn(record.outcome);
  };
  remap_.assign(record.pool_used, SlotIndex::kNone);
  for_each_text([this](const TextRecord& text) {
    if (text.code == TraceText::kFree) remap_[text.pool] = 0;
  });
  uint32_t kept = 0;
  for (uint32_t i = 0; i < record.pool_used; ++i) {
    if (remap_[i] == SlotIndex::kNone) continue;
    if (i != kept) record.pool[kept].swap(record.pool[i]);
    remap_[i] = kept++;
  }
  record.pool_used = kept;
  for_each_text([this](TextRecord& text) {
    if (text.code == TraceText::kFree) text.pool = remap_[text.pool];
  });
}

void Tracer::Append(Record& record, TextRecord& to, const TraceText& text) {
  if (text.code == TraceText::kNone) return;
  if (to.code == TraceText::kNone) {
    to = Store(record, text);
    return;
  }
  // Both sides non-empty (rare): join them into one side-pool string.
  if (record.pool_used == record.pool.size()) record.pool.emplace_back();
  const uint32_t pool = record.pool_used++;
  std::string& joined = record.pool[pool];
  joined.clear();
  Render(record, to, joined);
  joined += ' ';
  if (text.code == TraceText::kFree) {
    joined.append(text.free);
  } else {
    Render(record, TextRecord{text.num, 0, text.code}, joined);
  }
  to = TextRecord{0.0, pool, TraceText::kFree};
}

void Tracer::Render(const Record& record, const TextRecord& text,
                    std::string& out) const {
  switch (text.code) {
    case TraceText::kFree:
      out += record.pool[text.pool];
      return;
    case TraceText::kPhase:
      out += PhaseToString(static_cast<Phase>(text.num));
      return;
    case TraceText::kDuty:
    case TraceText::kSeconds:
    case TraceText::kBackoff: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), kTexts[text.code], text.num);
      out += buf;
      return;
    }
    case TraceText::kTerminal: {
      const char* name = record.outcome.code == TraceText::kFree
                             ? record.pool[record.outcome.pool].c_str()
                             : kTexts[record.outcome.code];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "outcome=%s cpu=%.3f io=%.0f spill=%.2f buffer_hit=%.2f",
                    name, record.cpu, record.io, record.spill,
                    record.buffer_hit);
      out += buf;
      return;
    }
    default:
      out += kTexts[text.code];
  }
}

void Tracer::OpenSpan(Slot slot, SpanKind kind, double now,
                      TraceText detail) {
  if (!slot) return;
  Record& record = records_[slot.index];
  record.spans.push_back(SpanRecord{now, -1.0, Store(record, detail), kind});
  Bound(record);
}

void Tracer::CloseSpan(Slot slot, SpanKind kind, double now,
                       TraceText append) {
  if (!slot) return;
  Record& record = records_[slot.index];
  for (auto it = record.spans.rbegin(); it != record.spans.rend(); ++it) {
    if (it->kind == kind && it->end < 0.0) {
      it->end = std::max(now, it->start);
      Append(record, it->detail, append);
      return;
    }
  }
}

void Tracer::AddClosedSpan(Slot slot, SpanKind kind, double start, double end,
                           TraceText detail) {
  if (!slot || end < start) return;
  Record& record = records_[slot.index];
  record.spans.push_back(SpanRecord{start, end, Store(record, detail), kind});
  Bound(record);
}

void Tracer::Instant(Slot slot, TraceText name, double now,
                     TraceText detail) {
  if (!slot) return;
  Record& record = records_[slot.index];
  const TextRecord stored_name = Store(record, name);
  record.instants.push_back(
      InstantRecord{now, stored_name, Store(record, detail)});
  Bound(record);
}

void Tracer::CloseExecutionSegment(Slot slot, double now, TraceText append) {
  if (!slot) return;
  for (SpanRecord& span : records_[slot.index].spans) {
    if (!IsInnerKind(span.kind)) continue;
    if (span.end < 0.0 || span.end > now) span.end = std::max(span.start, now);
  }
  CloseSpan(slot, SpanKind::kExecute, now, append);
}

void Tracer::CloseExecutionSegment(Slot slot, double now,
                                   const char* outcome_name,
                                   const QueryOutcome& outcome) {
  if (!slot) return;
  Record& record = records_[slot.index];
  if (!record.has_terminal) {
    // Keep the raw numbers; the kTerminal text renders them when read.
    record.has_terminal = true;
    record.outcome = Store(record, OutcomeText(outcome_name));
    record.cpu = outcome.cpu_used;
    record.io = outcome.io_used;
    record.spill = outcome.spill_factor;
    record.buffer_hit = outcome.buffer_hit_ratio;
    CloseExecutionSegment(slot, now, TraceText(TraceText::kTerminal));
    return;
  }
  // A second terminal on one trace: its numbers cannot share the record's.
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "outcome=%s cpu=%.3f io=%.0f spill=%.2f buffer_hit=%.2f",
                outcome_name, outcome.cpu_used, outcome.io_used,
                outcome.spill_factor, outcome.buffer_hit_ratio);
  CloseExecutionSegment(slot, now, TraceText(detail));
}

void Tracer::FinishTrace(Slot slot, double now) {
  if (!slot) return;
  Record& record = records_[slot.index];
  if (record.finished) return;
  for (SpanRecord& span : record.spans) {
    if (span.end < 0.0 || span.end > now) span.end = std::max(span.start, now);
  }
  record.finished = true;
  finished_.push_back(slot.index);
}

QueryTrace Tracer::Materialize(const Record& record) const {
  QueryTrace trace;
  trace.id = record.id;
  trace.workload = workloads_.Name(record.workload);
  trace.kind = record.kind;
  trace.tid = record.tid;
  trace.start_time = record.start_time;
  trace.finished = record.finished;
  trace.spans.reserve(record.spans.size());
  for (const SpanRecord& span : record.spans) {
    trace.spans.push_back(
        Span{span.kind, span.start, span.end, Render(record, span.detail)});
  }
  trace.instants.reserve(record.instants.size());
  for (const InstantRecord& instant : record.instants) {
    trace.instants.push_back(TraceInstant{instant.time,
                                          Render(record, instant.name),
                                          Render(record, instant.detail)});
  }
  return trace;
}

std::vector<QueryTrace> Tracer::Traces() const {
  std::vector<const Record*> live;
  live.reserve(size());
  for (const Record& record : records_) {
    if (record.in_use) live.push_back(&record);
  }
  std::sort(live.begin(), live.end(), [](const Record* a, const Record* b) {
    return a->tid < b->tid;
  });
  std::vector<QueryTrace> out;
  out.reserve(live.size());
  for (const Record* record : live) out.push_back(Materialize(*record));
  return out;
}

}  // namespace wlm
