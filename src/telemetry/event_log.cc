#include "telemetry/event_log.h"

#include <cassert>

namespace wlm {

const char* WlmEventTypeToString(WlmEventType type) {
  switch (type) {
    case WlmEventType::kSubmitted:
      return "submitted";
    case WlmEventType::kRejected:
      return "rejected";
    case WlmEventType::kDispatched:
      return "dispatched";
    case WlmEventType::kCompleted:
      return "completed";
    case WlmEventType::kKilled:
      return "killed";
    case WlmEventType::kAborted:
      return "aborted";
    case WlmEventType::kResubmitted:
      return "resubmitted";
    case WlmEventType::kSuspended:
      return "suspended";
    case WlmEventType::kResumed:
      return "resumed";
    case WlmEventType::kThrottled:
      return "throttled";
    case WlmEventType::kPaused:
      return "paused";
    case WlmEventType::kReprioritized:
      return "reprioritized";
    case WlmEventType::kSloViolation:
      return "slo_violation";
    case WlmEventType::kFaultInjected:
      return "fault_injected";
    case WlmEventType::kFaultRecovered:
      return "fault_recovered";
    case WlmEventType::kShed:
      return "shed";
    case WlmEventType::kRetryDenied:
      return "retry_denied";
    case WlmEventType::kBreakerTripped:
      return "breaker_tripped";
    case WlmEventType::kBreakerHalfOpen:
      return "breaker_half_open";
    case WlmEventType::kBreakerClosed:
      return "breaker_closed";
    case WlmEventType::kBrownoutStepped:
      return "brownout_stepped";
    case WlmEventType::kShardDown:
      return "shard_down";
    case WlmEventType::kShardRecovered:
      return "shard_recovered";
    case WlmEventType::kHedged:
      return "hedged";
  }
  return "?";
}

EventLog::EventLog(size_t max_events) : max_events_(max_events) {
  ring_.reserve(ReserveBound(max_events_));
}

void EventLog::Append(WlmEvent event) {
  Append(event.time, event.type, event.query, event.workload, event.detail);
}

void EventLog::Append(double time, WlmEventType type, QueryId query,
                      std::string_view workload, std::string_view detail) {
  if (max_events_ == 0) {
    first_seq_ = ++total_;
    return;
  }
  if (size() == max_events_) EvictOldest();
  const uint32_t pos = next_pos_;
  next_pos_ = Next(pos);
  if (pos == ring_.size()) ring_.emplace_back();
  Record& record = ring_[pos];
  record.time = time;
  record.query = query;
  record.type = type;
  record.workload = workloads_.Intern(workload);
  record.next_same_query = kNone;
  record.next_same_type = kNone;
  record.detail = kNone;
  if (!detail.empty()) {
    // A side-ring string is overwritten only after max_events_ newer
    // details, by which time the event that held it has been evicted.
    record.detail = next_detail_;
    next_detail_ = Next(next_detail_);
    if (record.detail == details_.size()) {
      details_.emplace_back(detail);
    } else {
      details_[record.detail].assign(detail);
    }
  }
  Link(by_type_[static_cast<size_t>(type)], pos, &Record::next_same_type,
       ring_);
  uint32_t chain = query_index_.Find(query);
  if (chain == kNone) {
    if (free_chains_.empty()) {
      chain = static_cast<uint32_t>(query_chains_.size());
      query_chains_.emplace_back();
    } else {
      chain = free_chains_.back();
      free_chains_.pop_back();
      query_chains_[chain] = Chain();
    }
    query_index_.Insert(query, chain);
  }
  Link(query_chains_[chain], pos, &Record::next_same_query, ring_);
  ++total_;
}

void EventLog::Link(Chain& chain, uint32_t pos, uint32_t Record::*next,
                    std::vector<Record>& ring) {
  if (chain.count == 0) {
    chain.head = pos;
  } else {
    ring[chain.tail].*next = pos;
  }
  chain.tail = pos;
  ++chain.count;
}

void EventLog::EvictOldest() {
  const Record& oldest = ring_[head_];
  // The evicted event is the oldest retained one, so it heads both its
  // type chain and its query chain.
  Chain& type_chain = by_type_[static_cast<size_t>(oldest.type)];
  assert(type_chain.count > 0 && type_chain.head == head_);
  if (--type_chain.count == 0) {
    type_chain = Chain();
  } else {
    type_chain.head = oldest.next_same_type;
  }
  const uint32_t chain = query_index_.Find(oldest.query);
  assert(chain != kNone && query_chains_[chain].head == head_);
  if (--query_chains_[chain].count == 0) {
    query_index_.Erase(oldest.query);
    free_chains_.push_back(chain);
  } else {
    query_chains_[chain].head = oldest.next_same_query;
  }
  head_ = Next(head_);
  ++first_seq_;
}

void EventLog::Clear() {
  by_type_.fill(Chain());
  query_index_.Clear();
  query_chains_.clear();
  free_chains_.clear();
  first_seq_ = total_;
  head_ = next_pos_;
}

WlmEvent EventLog::Materialize(uint32_t pos) const {
  const Record& record = ring_[pos];
  WlmEvent event;
  event.time = record.time;
  event.type = record.type;
  event.query = record.query;
  event.workload = workloads_.Name(record.workload);
  if (record.detail != kNone) event.detail = details_[record.detail];
  return event;
}

std::vector<WlmEvent> EventLog::Recent(size_t count) const {
  const size_t retained = size();
  const size_t take = count < retained ? count : retained;
  std::vector<WlmEvent> out;
  out.reserve(take);
  for (size_t i = retained - take; i < retained; ++i) {
    out.push_back(Materialize(PositionAt(i)));
  }
  return out;
}

std::vector<WlmEvent> EventLog::OfType(WlmEventType type) const {
  const Chain& chain = by_type_[static_cast<size_t>(type)];
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(chain.count));
  uint32_t pos = chain.head;
  for (int64_t i = 0; i < chain.count; ++i) {
    out.push_back(Materialize(pos));
    pos = ring_[pos].next_same_type;
  }
  return out;
}

std::vector<WlmEvent> EventLog::ForQuery(QueryId id) const {
  const uint32_t index = query_index_.Find(id);
  if (index == kNone) return {};
  const Chain& chain = query_chains_[index];
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(chain.count));
  uint32_t pos = chain.head;
  for (int64_t i = 0; i < chain.count; ++i) {
    out.push_back(Materialize(pos));
    pos = ring_[pos].next_same_query;
  }
  return out;
}

std::vector<WlmEvent> EventLog::InWindow(double begin, double end) const {
  // First retained offset whose time is >= t (times are nondecreasing).
  auto lower = [this](size_t from, double t) {
    size_t lo = from;
    size_t hi = size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (ring_[PositionAt(mid)].time < t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const size_t lo = lower(0, begin);
  const size_t hi = lower(lo, end);
  std::vector<WlmEvent> out;
  out.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) out.push_back(Materialize(PositionAt(i)));
  return out;
}

int64_t EventLog::CountOf(WlmEventType type) const {
  return by_type_[static_cast<size_t>(type)].count;
}

}  // namespace wlm
