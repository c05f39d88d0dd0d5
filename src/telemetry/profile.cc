#include "telemetry/profile.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace wlm {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kAdmissionQueue:
      return "admission_queue";
    case Phase::kOverloadQueue:
      return "overload_queue";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kCpuRun:
      return "cpu_run";
    case Phase::kIoStall:
      return "io_stall";
    case Phase::kMemoryStall:
      return "memory_stall";
    case Phase::kThrottled:
      return "throttled";
    case Phase::kSuspendFlush:
      return "suspend_flush";
    case Phase::kSuspendedWait:
      return "suspended_wait";
    case Phase::kRetryBackoff:
      return "retry_backoff";
  }
  return "?";
}

double QueryProfile::PhaseSum() const {
  double sum = 0.0;
  for (double seconds : phase_seconds) sum += seconds;
  return sum;
}

double QueryProfile::PhaseShare(Phase phase) const {
  double sum = PhaseSum();
  return sum > 0.0 ? seconds(phase) / sum : 0.0;
}

Phase QueryProfile::DominantPhase() const {
  size_t best = 0;
  for (size_t i = 1; i < kPhaseCount; ++i) {
    if (phase_seconds[i] > phase_seconds[best]) best = i;
  }
  return static_cast<Phase>(best);
}

std::string ExplainOutcome(const QueryProfile& profile) {
  if (!profile.terminal()) return "live";
  if (profile.outcome == "rejected" || profile.outcome == "shed") {
    std::string out = profile.outcome + ": ";
    out += profile.detail.empty() ? "admission" : profile.detail;
    return out;
  }
  Phase dominant = profile.DominantPhase();
  double share = profile.PhaseShare(dominant);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "%.0f%% %s", share * 100.0,
                PhaseToString(dominant));
  if (profile.outcome == "completed") {
    const char* verdict =
        (dominant == Phase::kCpuRun || dominant == Phase::kIoStall)
            ? "healthy"
            : "slow";
    return std::string(verdict) + ": " + suffix;
  }
  // killed / aborted: lead with the outcome, keep the decomposition.
  std::string out = profile.outcome + ": " + suffix;
  if (!profile.detail.empty()) out += " (" + profile.detail + ")";
  return out;
}

namespace {

// Outcome names a record stores as a code; index 0 is "live".
constexpr const char* kOutcomes[] = {"",       "completed", "killed",
                                     "aborted", "rejected",  "shed"};

}  // namespace

ProfileStore::ProfileStore(size_t max_profiles)
    : max_profiles_(max_profiles) {
  records_.reserve(ReserveBound(max_profiles_));
}

ProfileStore::Slot ProfileStore::Begin(QueryId id, const std::string& workload,
                                       QueryKind kind, double now,
                                       uint64_t journey) {
  const uint32_t found = index_.Find(id);
  if (found != SlotIndex::kNone) return Slot{found};
  while (size() >= max_profiles_ && !finished_.empty()) {
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
    records_[slot] = Record();
  }
  Record& record = records_[slot];
  record.id = id;
  record.journey = journey;
  record.workload = workloads_.Intern(workload);
  record.kind = kind;
  record.arrival_time = now;
  record.in_use = true;
  record.order = next_order_++;
  index_.Insert(id, slot);
  return Slot{slot};
}

void ProfileStore::OpenWait(Slot slot, Phase phase, double now) {
  Record* record = At(slot);
  if (record == nullptr) return;
  SettleRecord(*record, now);
  record->open_phase = static_cast<int>(phase);
  record->open_start = now;
}

void ProfileStore::OpenQueueWait(Slot slot, double now) {
  OpenWait(slot, queue_lifo_ ? Phase::kOverloadQueue : Phase::kAdmissionQueue,
           now);
}

void ProfileStore::SettleRecord(Record& record, double now) {
  if (record.open_phase < 0) return;
  double waited = std::max(0.0, now - record.open_start);
  record.phase_seconds[static_cast<size_t>(record.open_phase)] += waited;
  record.open_phase = -1;
}

void ProfileStore::SetQueueDiscipline(bool lifo, double now) {
  if (lifo == queue_lifo_) return;
  queue_lifo_ = lifo;
  const int admission = static_cast<int>(Phase::kAdmissionQueue);
  const int overload = static_cast<int>(Phase::kOverloadQueue);
  for (Record& record : records_) {
    if (!record.in_use || (record.open_phase != admission &&
                           record.open_phase != overload)) {
      continue;
    }
    SettleRecord(record, now);
    record.open_phase = lifo ? overload : admission;
    record.open_start = now;
  }
}

void ProfileStore::AccumulateSegment(Slot slot, const QueryOutcome& outcome) {
  Record* record = At(slot);
  if (record == nullptr) return;
  const ExecPhaseTotals& phases = outcome.phases;
  auto add = [record](Phase phase, double seconds) {
    record->phase_seconds[static_cast<size_t>(phase)] += seconds;
  };
  add(Phase::kLockWait, phases.lock_wait_seconds);
  add(Phase::kCpuRun, phases.cpu_run_seconds);
  add(Phase::kIoStall, phases.io_stall_seconds);
  add(Phase::kMemoryStall, phases.memory_stall_seconds);
  add(Phase::kThrottled, phases.throttled_seconds);
  add(Phase::kSuspendFlush, phases.suspend_flush_seconds);
  ResourceAttribution& r = record->resources;
  r.cpu_seconds += outcome.cpu_used;
  r.io_ops += outcome.io_used;
  r.peak_memory_mb = std::max(r.peak_memory_mb, outcome.memory_granted_mb);
  r.lock_hold_seconds += outcome.lock_hold_seconds;
  r.spill_factor = std::max(r.spill_factor, outcome.spill_factor);
  r.buffer_hit_ratio = std::max(r.buffer_hit_ratio, outcome.buffer_hit_ratio);
  ++record->run_segments;
}

void ProfileStore::MarkDispatched(Slot slot, double now) {
  Record* record = At(slot);
  if (record == nullptr) return;
  SettleRecord(*record, now);
  if (record->first_dispatch_time < 0.0) record->first_dispatch_time = now;
}

void ProfileStore::CountRequeue(Slot slot) {
  if (Record* record = At(slot)) ++record->requeue_count;
}

void ProfileStore::CountSuspend(Slot slot) {
  if (Record* record = At(slot)) ++record->suspend_count;
}

bool ProfileStore::Finalize(Slot slot, double now, std::string_view outcome,
                            std::string_view detail) {
  Record* record = At(slot);
  if (record == nullptr || record->outcome != kLive) return false;
  SettleRecord(*record, now);
  record->finish_time = now;
  record->outcome = kFreeOutcome;
  for (uint8_t code = 1; code < std::size(kOutcomes); ++code) {
    if (outcome == kOutcomes[code]) record->outcome = code;
  }
  record->has_detail = !detail.empty();
  if (record->outcome == kFreeOutcome || record->has_detail) {
    if (slot.index >= side_.size()) side_.resize(slot.index + 1);
    if (record->outcome == kFreeOutcome) side_[slot.index].outcome = outcome;
    if (record->has_detail) side_[slot.index].detail = detail;
  }
  finished_.push_back(slot.index);

  if (record->workload >= rollups_.size()) {
    rollups_.resize(record->workload + 1);
  }
  ClassProfileRollup& rollup = rollups_[record->workload];
  ++rollup.count;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    rollup.phase_seconds[i] += record->phase_seconds[i];
  }
  const ResourceAttribution& r = record->resources;
  ResourceAttribution& sum = rollup.resources;
  sum.cpu_seconds += r.cpu_seconds;
  sum.io_ops += r.io_ops;
  sum.peak_memory_mb = std::max(sum.peak_memory_mb, r.peak_memory_mb);
  sum.lock_hold_seconds += r.lock_hold_seconds;
  sum.spill_factor = std::max(sum.spill_factor, r.spill_factor);
  sum.buffer_hit_ratio = std::max(sum.buffer_hit_ratio, r.buffer_hit_ratio);
  return true;
}

std::optional<QueryProfile> ProfileStore::Finalize(QueryId id, double now,
                                                   const std::string& outcome,
                                                   const std::string& detail) {
  const Slot slot = Lookup(id);
  if (!Finalize(slot, now, outcome, detail)) return std::nullopt;
  QueryProfile profile;
  CopyTo(slot, &profile);
  return profile;
}

std::pair<int, double> ProfileStore::OpenSegment(Slot slot) const {
  if (!slot || records_[slot.index].open_phase < 0) return {-1, 0.0};
  return {records_[slot.index].open_phase, records_[slot.index].open_start};
}

void ProfileStore::CopyTo(Slot slot, QueryProfile* out) const {
  const Record& record = records_[slot.index];
  out->id = record.id;
  out->journey = record.journey;
  out->workload = workloads_.Name(record.workload);
  out->kind = record.kind;
  out->arrival_time = record.arrival_time;
  out->first_dispatch_time = record.first_dispatch_time;
  out->finish_time = record.finish_time;
  if (record.outcome == kFreeOutcome) {
    out->outcome = side_[slot.index].outcome;
  } else {
    out->outcome = kOutcomes[record.outcome];
  }
  if (record.has_detail) {
    out->detail = side_[slot.index].detail;
  } else {
    out->detail.clear();
  }
  out->phase_seconds = record.phase_seconds;
  out->resources = record.resources;
  out->run_segments = record.run_segments;
  out->suspend_count = record.suspend_count;
  out->requeue_count = record.requeue_count;
}

std::optional<QueryProfile> ProfileStore::Find(QueryId id) const {
  const Slot slot = Lookup(id);
  if (!slot) return std::nullopt;
  QueryProfile profile;
  CopyTo(slot, &profile);
  return profile;
}

std::vector<QueryProfile> ProfileStore::Profiles() const {
  std::vector<std::pair<int64_t, uint32_t>> ordered;
  ordered.reserve(size());
  for (uint32_t i = 0; i < records_.size(); ++i) {
    if (records_[i].in_use) ordered.emplace_back(records_[i].order, i);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<QueryProfile> out(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    CopyTo(Slot{ordered[i].second}, &out[i]);
  }
  return out;
}

std::map<std::string, ClassProfileRollup> ProfileStore::rollups() const {
  std::map<std::string, ClassProfileRollup> out;
  for (uint32_t id = 0; id < rollups_.size(); ++id) {
    if (rollups_[id].count > 0) out[workloads_.Name(id)] = rollups_[id];
  }
  return out;
}

}  // namespace wlm
