#include "telemetry/trace.h"

#include <algorithm>
#include <array>
#include <utility>

#include "telemetry/bounded_store.h"

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

Tracer::Tracer(size_t max_traces) : max_traces_(max_traces) {
  // The population is bounded, so sizing the table once avoids rehashes.
  traces_.reserve(max_traces_);
}

QueryTrace& Tracer::GetOrCreate(QueryId id, const std::string& workload,
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

const QueryTrace* Tracer::Find(QueryId id) const {
  auto it = traces_.find(id);
  return it == traces_.end() ? nullptr : &it->second;
}

void Tracer::OpenSpan(QueryId id, SpanKind kind, double now,
                      std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  Span span;
  span.kind = kind;
  span.start = now;
  span.detail = std::move(detail);
  it->second.spans.push_back(std::move(span));
}

void Tracer::CloseSpan(QueryId id, SpanKind kind, double now,
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

void Tracer::AddClosedSpan(QueryId id, SpanKind kind, double start,
                           double end, std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end() || end < start) return;
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.detail = std::move(detail);
  it->second.spans.push_back(std::move(span));
}

void Tracer::AddClosedSpans(QueryId id, Span* spans, size_t count) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  auto& out = it->second.spans;
  for (size_t i = 0; i < count; ++i) {
    if (spans[i].end < spans[i].start) continue;
    out.push_back(std::move(spans[i]));
  }
}

void Tracer::Instant(QueryId id, std::string name, double now,
                     std::string detail) {
  auto it = traces_.find(id);
  if (it == traces_.end()) return;
  TraceInstant instant;
  instant.time = now;
  instant.name = std::move(name);
  instant.detail = std::move(detail);
  it->second.instants.push_back(std::move(instant));
}

void Tracer::CloseExecutionSegment(QueryId id, double now,
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

void Tracer::FinishTrace(QueryId id, double now) {
  auto it = traces_.find(id);
  if (it == traces_.end() || it->second.finished) return;
  for (Span& span : it->second.spans) {
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  it->second.finished = true;
  finished_order_.push_back(id);
}

std::vector<const QueryTrace*> Tracer::Traces() const {
  std::vector<const QueryTrace*> out;
  out.reserve(traces_.size());
  for (const auto& [id, trace] : traces_) out.push_back(&trace);
  std::sort(out.begin(), out.end(),
            [](const QueryTrace* a, const QueryTrace* b) {
              return a->tid < b->tid;
            });
  return out;
}

}  // namespace wlm
