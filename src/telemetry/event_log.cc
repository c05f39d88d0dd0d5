#include "telemetry/event_log.h"

#include <algorithm>
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

EventLog::EventLog(size_t max_events) : max_events_(max_events) {}

void EventLog::Append(WlmEvent event) {
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

void EventLog::Clear() {
  events_.clear();
  next_seq_.clear();
  for (auto& index : by_type_) index.clear();
  by_query_.clear();
  first_seq_ = total_;
}

std::vector<WlmEvent> EventLog::OfType(WlmEventType type) const {
  const auto& index = by_type_[static_cast<size_t>(type)];
  std::vector<WlmEvent> out;
  out.reserve(index.size());
  for (int64_t seq : index) out.push_back(AtSeq(seq));
  return out;
}

std::vector<WlmEvent> EventLog::ForQuery(QueryId id) const {
  auto it = by_query_.find(id);
  if (it == by_query_.end()) return {};
  std::vector<WlmEvent> out;
  out.reserve(it->second.count);
  for (int64_t seq = it->second.head; seq >= 0; seq = next_seq_[Slot(seq)]) {
    out.push_back(AtSeq(seq));
  }
  return out;
}

std::vector<WlmEvent> EventLog::InWindow(double begin, double end) const {
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), begin,
      [](const WlmEvent& e, double t) { return e.time < t; });
  auto hi = std::lower_bound(
      lo, events_.end(), end,
      [](const WlmEvent& e, double t) { return e.time < t; });
  return std::vector<WlmEvent>(lo, hi);
}

int64_t EventLog::CountOf(WlmEventType type) const {
  return static_cast<int64_t>(by_type_[static_cast<size_t>(type)].size());
}

}  // namespace wlm
