#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace wlm {

const char* SyntheticTrackName(SyntheticTrack track) {
  switch (track) {
    case SyntheticTrack::kFaults:
      return "faults";
    case SyntheticTrack::kOverload:
      return "overload";
    case SyntheticTrack::kCluster:
      return "cluster";
  }
  return "?";
}

Telemetry::Telemetry(Simulation* sim, Monitor* monitor, EventLog* event_log,
                     TelemetryOptions options)
    : sim_(sim),
      monitor_(monitor),
      event_log_(event_log),
      enabled_(options.enabled),
      profiling_(options.profiling),
      flight_recorder_enabled_(options.flight_recorder),
      tracer_(options.max_traces),
      watchdog_(monitor, event_log, &metrics_),
      profiles_(options.max_profiles),
      recorder_(options.flight_recorder_options) {
  if (!enabled_) return;
  metrics_.SetHelp("wlm_requests_submitted_total",
                   "Requests entering the workload manager");
  metrics_.SetHelp("wlm_requests_rejected_total",
                   "Requests refused by an admission gate");
  metrics_.SetHelp("wlm_requests_completed_total",
                   "Requests finishing successfully");
  metrics_.SetHelp("wlm_requests_killed_total",
                   "Requests killed by execution control");
  metrics_.SetHelp("wlm_requests_aborted_total",
                   "Deadlock victims not resubmitted");
  metrics_.SetHelp("wlm_requests_resubmitted_total",
                   "Automatic requeues after a kill or deadlock");
  metrics_.SetHelp("wlm_requests_suspended_total",
                   "Suspensions completing their state flush");
  metrics_.SetHelp("wlm_dispatches_total",
                   "Dispatches into the engine (resumed=true for resumes)");
  metrics_.SetHelp("wlm_dispatch_gated_total",
                   "Dispatch attempts held back by an admission gate");
  metrics_.SetHelp("wlm_throttle_changes_total", "Duty-cycle changes");
  metrics_.SetHelp("wlm_pauses_total", "Interrupt-throttle pauses");
  metrics_.SetHelp("wlm_reprioritizations_total",
                   "Business-priority changes");
  metrics_.SetHelp("wlm_response_seconds",
                   "Arrival-to-finish response time");
  metrics_.SetHelp("wlm_queue_wait_seconds",
                   "Wait before the first dispatch");
  metrics_.SetHelp("wlm_lock_wait_seconds",
                   "Lock acquisition wait per execution segment");
  metrics_.SetHelp("wlm_queue_depth", "Requests waiting for dispatch");
  metrics_.SetHelp("wlm_running", "Requests executing in the engine");
  metrics_.SetHelp("wlm_cpu_utilization", "Engine CPU utilization");
  metrics_.SetHelp("wlm_io_utilization", "Engine I/O utilization");
  metrics_.SetHelp("wlm_memory_utilization", "Work-memory utilization");
  metrics_.SetHelp("wlm_conflict_ratio", "Lock conflict ratio");
  metrics_.SetHelp("wlm_throughput", "Completions per second");
  metrics_.SetHelp("wlm_slo_violations_total",
                   "Transitions of a workload SLO into violation");
  metrics_.SetHelp("wlm_slo_violation_samples_total",
                   "Monitor samples observed with the SLO violated");
  metrics_.SetHelp("wlm_slo_attainment",
                   "actual/target, >= 1 means the objective is met");
  metrics_.SetHelp("wlm_faults_injected_total",
                   "Fault windows activated, by fault kind");
  metrics_.SetHelp("wlm_faults_recovered_total",
                   "Fault windows ended with degradation reverted");
  metrics_.SetHelp("wlm_faults_active", "Fault windows currently open");
  metrics_.SetHelp("wlm_faults_aborts_total",
                   "Running requests spontaneously aborted by a fault");
  metrics_.SetHelp("wlm_faults_retries_total",
                   "Fault-abort retries scheduled with backoff");
  metrics_.SetHelp("wlm_faults_degraded",
                   "1 while graceful degradation is in force");
  metrics_.SetHelp("wlm_overload_shed_total",
                   "Requests dropped by overload protection, by reason");
  metrics_.SetHelp("wlm_overload_retry_denied_total",
                   "Resilience retries blocked by budget or deadline");
  metrics_.SetHelp("wlm_overload_breaker_state",
                   "Circuit breaker state (0 closed, 1 half-open, 2 open)");
  metrics_.SetHelp("wlm_overload_breaker_transitions_total",
                   "Circuit breaker state transitions, by target state");
  metrics_.SetHelp("wlm_overload_brownout_level",
                   "Current brownout shed level (0 = all classes served)");
  metrics_.SetHelp("wlm_overload_brownout_steps_total",
                   "Brownout shed-level changes");
  metrics_.SetHelp("wlm_overload_queue_lifo",
                   "1 while the wait queue serves newest-first");
  metrics_.SetHelp("wlm_phase_seconds_total",
                   "Wall time by latency-decomposition phase and service "
                   "class (workload), accrued at terminal outcomes");
  metrics_.SetHelp("wlm_escalations_total",
                   "Timeout-escalation ladder actions, by rung");
  metrics_.SetHelp("wlm_flight_recorder_dumps_total",
                   "Post-mortems captured by the flight recorder");
}

double Telemetry::Now() const { return sim_->Now(); }

void Telemetry::WatchSlos(const std::string& workload,
                          const std::vector<ServiceLevelObjective>& slos) {
  if (!enabled_) return;
  watchdog_.SetSlos(workload, slos);
}

std::string_view Telemetry::Join(
    std::initializer_list<std::string_view> parts) {
  scratch_.clear();
  for (std::string_view part : parts) scratch_ += part;
  return scratch_;
}

Counter*& Telemetry::Keyed(KeyedCounters& cache, std::string_view key) {
  for (auto& [name, counter] : cache) {
    if (name == key) return counter;
  }
  return cache.emplace_back(std::string(key), nullptr).second;
}

void Telemetry::OnSubmit(QueryId id, const std::string& workload,
                         QueryKind kind, uint64_t journey) {
  if (!enabled_) return;
  const double now = Now();
  tracer_.GetOrCreate(id, workload, kind, now);
  if (profiling_) profiles_.Begin(id, workload, kind, now, journey);
  Counter*& submitted = workload_series_[workload].submitted;
  if (submitted == nullptr) {
    submitted = &metrics_.GetCounter("wlm_requests_submitted_total",
                                     {{"workload", workload}});
  }
  submitted->Increment();
}

void Telemetry::OnAdmitted(QueryId id, const std::string& workload) {
  if (!enabled_) return;
  (void)workload;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.AddClosedSpan(trace, SpanKind::kAdmit, now, now,
                        TraceText::kAdmitted);
  tracer_.OpenSpan(trace, SpanKind::kQueue, now);
  if (profiling_) profiles_.OpenQueueWait(profiles_.Lookup(id), now);
}

void Telemetry::OnRejected(QueryId id, const std::string& workload,
                           const std::string& gate,
                           const std::string& reason) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.AddClosedSpan(trace, SpanKind::kAdmit, now, now,
                        Join({"rejected gate=", gate, " reason=", reason}));
  tracer_.FinishTrace(trace, now);
  FinalizeProfile(profiles_.Lookup(id), "rejected",
                  Join({reason, " (gate=", gate, ")"}));
  Counter*& rejected = Keyed(workload_series_[workload].rejected, gate);
  if (rejected == nullptr) {
    rejected = &metrics_.GetCounter("wlm_requests_rejected_total",
                                    {{"workload", workload}, {"gate", gate}});
  }
  rejected->Increment();
}

void Telemetry::TileOpenWait(Tracer::Slot trace, ProfileStore::Slot profile,
                             double now) {
  auto [phase, start] = profiles_.OpenSegment(profile);
  if (phase >= 0 && now > start) {
    tracer_.AddClosedSpan(trace, SpanKind::kPhase, start, now,
                          TraceText(TraceText::kPhase, phase));
  }
}

void Telemetry::OnRequeued(QueryId id, const std::string& workload) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  // A kill/deadlock resubmission interrupts the running segment.
  tracer_.CloseExecutionSegment(trace, now, TraceText::kOutcomeResubmitted);
  tracer_.OpenSpan(trace, SpanKind::kQueue, now, TraceText::kResubmit);
  if (profiling_) {
    // A fault retry arrives here from backoff limbo: tile that wait.
    const ProfileStore::Slot profile = profiles_.Lookup(id);
    TileOpenWait(trace, profile, now);
    profiles_.CountRequeue(profile);
    profiles_.OpenQueueWait(profile, now);
  }
  Counter*& resubmitted = workload_series_[workload].resubmitted;
  if (resubmitted == nullptr) {
    resubmitted = &metrics_.GetCounter("wlm_requests_resubmitted_total",
                                       {{"workload", workload}});
  }
  resubmitted->Increment();
}

void Telemetry::OnDispatchGated(QueryId id, const std::string& workload,
                                const std::string& gate) {
  if (!enabled_) return;
  (void)id;
  metrics_
      .GetCounter("wlm_dispatch_gated_total",
                  {{"workload", workload}, {"gate", gate}})
      .Increment();
}

void Telemetry::OnDispatch(QueryId id, const std::string& workload,
                           bool resumed) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.CloseSpan(trace,
                    resumed ? SpanKind::kSuspendedWait : SpanKind::kQueue, now);
  tracer_.OpenSpan(trace, SpanKind::kExecute, now,
                   resumed ? TraceText(TraceText::kResumed) : TraceText());
  if (profiling_) {
    // Tile the wait that just ended (admission/overload queue or
    // suspended wait), then settle it into the profile.
    const ProfileStore::Slot profile = profiles_.Lookup(id);
    TileOpenWait(trace, profile, now);
    profiles_.MarkDispatched(profile, now);
  }
  Counter*& dispatches = workload_series_[workload].dispatches[resumed];
  if (dispatches == nullptr) {
    dispatches = &metrics_.GetCounter(
        "wlm_dispatches_total",
        {{"workload", workload}, {"resumed", resumed ? "true" : "false"}});
  }
  dispatches->Increment();
}

void Telemetry::OnSuspendStart(QueryId id, const std::string& workload,
                               const char* strategy) {
  if (!enabled_) return;
  (void)workload;
  tracer_.OpenSpan(id, SpanKind::kSuspendFlush, Now(),
                   Join({"strategy=", strategy}));
}

void Telemetry::OnSuspended(QueryId id, const std::string& workload) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.CloseSpan(trace, SpanKind::kSuspendFlush, now);
  tracer_.CloseExecutionSegment(trace, now, TraceText::kOutcomeSuspended);
  tracer_.OpenSpan(trace, SpanKind::kSuspendedWait, now);
  if (profiling_) {
    const ProfileStore::Slot profile = profiles_.Lookup(id);
    profiles_.CountSuspend(profile);
    profiles_.OpenWait(profile, Phase::kSuspendedWait, now);
  }
  Counter*& suspended = workload_series_[workload].suspended;
  if (suspended == nullptr) {
    suspended = &metrics_.GetCounter("wlm_requests_suspended_total",
                                     {{"workload", workload}});
  }
  suspended->Increment();
}

void Telemetry::OnRunSegment(QueryId id, const std::string& workload,
                             const QueryOutcome& outcome) {
  if (!enabled_ || !profiling_) return;
  (void)workload;
  profiles_.AccumulateSegment(profiles_.Lookup(id), outcome);
  AddPhaseTiles(tracer_.Lookup(id), outcome.dispatch_time, outcome.phases);
}

void Telemetry::OnTerminal(QueryId id, const std::string& workload,
                           const char* outcome_name, double response_seconds,
                           double queue_wait_seconds,
                           const QueryOutcome& outcome) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  WorkloadSeries& series = workload_series_[workload];
  if (outcome.lock_wait_seconds > 0.0) {
    tracer_.AddClosedSpan(
        trace, SpanKind::kLockWait, outcome.dispatch_time,
        std::min(outcome.dispatch_time + outcome.lock_wait_seconds, now));
    if (series.lock_wait == nullptr) {
      series.lock_wait = &metrics_.GetHistogram("wlm_lock_wait_seconds",
                                                {{"workload", workload}});
    }
    series.lock_wait->Observe(outcome.lock_wait_seconds);
  }
  tracer_.CloseExecutionSegment(trace, now, outcome_name, outcome);
  tracer_.FinishTrace(trace, now);
  FinalizeProfile(profiles_.Lookup(id), outcome_name, "");

  if (std::strcmp(outcome_name, "completed") == 0) {
    if (series.completed == nullptr) {
      series.completed = &metrics_.GetCounter(
          "wlm_requests_completed_total", {{"workload", workload}});
    }
    series.completed->Increment();
  } else {
    Counter*& counter = Keyed(series.outcomes, outcome_name);
    if (counter == nullptr) {
      counter = &metrics_.GetCounter(
          std::string("wlm_requests_") + outcome_name + "_total",
          {{"workload", workload}});
    }
    counter->Increment();
  }
  if (series.response == nullptr) {
    series.response = &metrics_.GetHistogram("wlm_response_seconds",
                                             {{"workload", workload}});
    series.queue_wait = &metrics_.GetHistogram("wlm_queue_wait_seconds",
                                               {{"workload", workload}});
  }
  series.response->Observe(response_seconds);
  series.queue_wait->Observe(queue_wait_seconds);
}

void Telemetry::OnThrottle(QueryId id, const std::string& workload,
                           double duty) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  const TraceText detail(TraceText::kDuty, duty);
  // A duty change ends any current window; a new sub-1.0 duty opens one.
  tracer_.CloseSpan(trace, SpanKind::kThrottle, now);
  if (duty < 1.0) {
    tracer_.OpenSpan(trace, SpanKind::kThrottle, now, detail);
  }
  tracer_.Instant(trace, TraceText::kThrottle, now, detail);
  Counter*& changes = workload_series_[workload].throttle_changes;
  if (changes == nullptr) {
    changes = &metrics_.GetCounter("wlm_throttle_changes_total",
                                   {{"workload", workload}});
  }
  changes->Increment();
}

void Telemetry::OnPause(QueryId id, const std::string& workload,
                        double seconds) {
  if (!enabled_) return;
  const double now = Now();
  // Recorded closed up-front; segment close clamps it if the query leaves
  // the engine before the pause elapses.
  tracer_.AddClosedSpan(id, SpanKind::kPause, now, now + seconds,
                        TraceText(TraceText::kSeconds, seconds));
  Counter*& pauses = workload_series_[workload].pauses;
  if (pauses == nullptr) {
    pauses = &metrics_.GetCounter("wlm_pauses_total", {{"workload", workload}});
  }
  pauses->Increment();
}

void Telemetry::OnReprioritize(QueryId id, const std::string& workload,
                               const char* priority) {
  if (!enabled_) return;
  tracer_.Instant(id, "reprioritize", Now(), Join({"priority=", priority}));
  metrics_
      .GetCounter("wlm_reprioritizations_total", {{"workload", workload}})
      .Increment();
}

Tracer::Slot Telemetry::TrackSlot(SyntheticTrack track, double now) {
  return tracer_.GetOrCreate(SyntheticTrackId(track), SyntheticTrackName(track),
                             QueryKind::kUtility, now);
}

void Telemetry::OnFaultBegin(const std::string& kind,
                             const std::string& detail) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot track = TrackSlot(SyntheticTrack::kFaults, now);
  tracer_.Instant(track, "fault_begin", now, kind + " " + detail);
  metrics_.GetCounter("wlm_faults_injected_total", {{"kind", kind}})
      .Increment();
  metrics_.GetGauge("wlm_faults_active").Add(1.0);
  ++active_faults_;
  TriggerFlightRecorder("fault:" + kind);
}

void Telemetry::OnFaultEnd(const std::string& kind, double started_at) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot track = TrackSlot(SyntheticTrack::kFaults, now);
  tracer_.AddClosedSpan(track, SpanKind::kFault, started_at, now, kind);
  tracer_.Instant(track, "fault_end", now, kind);
  metrics_.GetCounter("wlm_faults_recovered_total", {{"kind", kind}})
      .Increment();
  metrics_.GetGauge("wlm_faults_active").Add(-1.0);
  if (active_faults_ > 0) --active_faults_;
}

void Telemetry::OnFaultAbort(QueryId id, const std::string& workload,
                             const std::string& reason) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.Instant(trace, TraceText::kFaultAbort, now, reason);
  tracer_.CloseExecutionSegment(trace, now, TraceText::kOutcomeFaultAbort);
  metrics_.GetCounter("wlm_faults_aborts_total", {{"workload", workload}})
      .Increment();
}

void Telemetry::OnFaultRetry(QueryId id, const std::string& workload,
                             double delay_seconds) {
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kFaultRetry, Now(),
                  TraceText(TraceText::kBackoff, delay_seconds));
  if (profiling_) profiles_.OpenWait(id, Phase::kRetryBackoff, Now());
  metrics_.GetCounter("wlm_faults_retries_total", {{"workload", workload}})
      .Increment();
}

void Telemetry::SetDegraded(bool degraded) {
  if (!enabled_) return;
  degraded_ = degraded;
  metrics_.GetGauge("wlm_faults_degraded").Set(degraded ? 1.0 : 0.0);
}

void Telemetry::OnShed(QueryId id, const std::string& workload,
                       const std::string& reason) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot trace = tracer_.Lookup(id);
  tracer_.CloseSpan(trace, SpanKind::kQueue, now, Join({" shed=", reason}));
  tracer_.Instant(trace, TraceText::kShed, now, reason);
  tracer_.FinishTrace(trace, now);
  const ProfileStore::Slot profile = profiles_.Lookup(id);
  if (profiling_) TileOpenWait(trace, profile, now);
  FinalizeProfile(profile, "shed", reason);
  Counter*& shed = Keyed(workload_series_[workload].shed, reason);
  if (shed == nullptr) {
    shed = &metrics_.GetCounter("wlm_overload_shed_total",
                                {{"workload", workload}, {"reason", reason}});
  }
  shed->Increment();
}

void Telemetry::OnRetryDenied(QueryId id, const std::string& workload,
                              const std::string& reason) {
  if (!enabled_) return;
  tracer_.Instant(id, TraceText::kRetryDenied, Now(), reason);
  metrics_
      .GetCounter("wlm_overload_retry_denied_total",
                  {{"workload", workload}, {"reason", reason}})
      .Increment();
}

void Telemetry::OnBreakerTransition(const std::string& workload, int state,
                                    const char* state_name, double opened_at,
                                    const std::string& detail) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot track = TrackSlot(SyntheticTrack::kOverload, now);
  tracer_.Instant(track, std::string("breaker_") + state_name, now,
                  workload + " " + detail);
  if (opened_at >= 0.0) {
    // Leaving the open state: record the whole open window as one span.
    tracer_.AddClosedSpan(track, SpanKind::kOverload, opened_at, now,
                          "breaker_open " + workload);
  }
  metrics_.GetGauge("wlm_overload_breaker_state", {{"workload", workload}})
      .Set(static_cast<double>(state));
  metrics_
      .GetCounter("wlm_overload_breaker_transitions_total",
                  {{"workload", workload}, {"to", state_name}})
      .Increment();
  breaker_states_[workload] = state;
  if (std::string(state_name) == "open") {
    TriggerFlightRecorder("breaker_open:" + workload);
  }
}

void Telemetry::OnBrownoutStep(int level, double entered_at,
                               const std::string& detail) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot track = TrackSlot(SyntheticTrack::kOverload, now);
  char name[48];
  std::snprintf(name, sizeof(name), "brownout_level_%d", level);
  tracer_.Instant(track, name, now, detail);
  if (level == 0 && entered_at >= 0.0) {
    // Episode over: record the whole brownout window as one span.
    tracer_.AddClosedSpan(track, SpanKind::kOverload, entered_at, now,
                          "brownout");
  }
  metrics_.GetGauge("wlm_overload_brownout_level")
      .Set(static_cast<double>(level));
  metrics_.GetCounter("wlm_overload_brownout_steps_total").Increment();
  brownout_level_ = level;
}

void Telemetry::OnQueueDiscipline(bool lifo) {
  if (!enabled_) return;
  const double now = Now();
  const Tracer::Slot track = TrackSlot(SyntheticTrack::kOverload, now);
  tracer_.Instant(track, lifo ? "queue_lifo" : "queue_fifo", now);
  metrics_.GetGauge("wlm_overload_queue_lifo").Set(lifo ? 1.0 : 0.0);
  queue_lifo_ = lifo;
  if (profiling_) profiles_.SetQueueDiscipline(lifo, now);
}

void Telemetry::OnMonitorSample(const SystemIndicators& indicators,
                                size_t queue_depth, size_t running_count) {
  if (!enabled_) return;
  metrics_.GetGauge("wlm_cpu_utilization").Set(indicators.cpu_utilization);
  metrics_.GetGauge("wlm_io_utilization").Set(indicators.io_utilization);
  metrics_.GetGauge("wlm_memory_utilization")
      .Set(indicators.memory_utilization);
  metrics_.GetGauge("wlm_conflict_ratio").Set(indicators.conflict_ratio);
  metrics_.GetGauge("wlm_throughput").Set(indicators.throughput);
  metrics_.GetGauge("wlm_queue_depth").Set(static_cast<double>(queue_depth));
  metrics_.GetGauge("wlm_running").Set(static_cast<double>(running_count));
  for (const auto& [tag, stats] : monitor_->all_tag_stats()) {
    metrics_.GetGauge("wlm_throughput", {{"workload", tag}})
        .Set(stats.last_interval_throughput);
  }
  last_indicators_ = indicators;
  last_queue_depth_ = queue_depth;
  last_running_ = running_count;
  watchdog_.Check(indicators);
  // New watchdog violations arm the black box: dump while the anomaly is
  // fresh rather than asking questions after the run.
  const auto& violations = watchdog_.violations();
  if (violations.size() > violations_seen_) {
    TriggerFlightRecorder("slo_violation:" + violations.back().workload);
    violations_seen_ = violations.size();
  }
}

void Telemetry::SetWorkloadOccupancy(const std::string& workload, int queued,
                                     int running) {
  if (!enabled_) return;
  metrics_.GetGauge("wlm_queue_depth", {{"workload", workload}})
      .Set(static_cast<double>(queued));
  metrics_.GetGauge("wlm_running", {{"workload", workload}})
      .Set(static_cast<double>(running));
}

void Telemetry::OnEscalation(QueryId id, const std::string& workload,
                             const char* rung) {
  if (!enabled_) return;
  tracer_.Instant(id, "escalate", Now(), Join({"rung=", rung}));
  metrics_
      .GetCounter("wlm_escalations_total",
                  {{"workload", workload}, {"rung", rung}})
      .Increment();
}

ControllerStateSnapshot Telemetry::ControllerState() const {
  ControllerStateSnapshot state;
  state.time = Now();
  state.degraded = degraded_;
  state.active_faults = active_faults_;
  state.brownout_level = brownout_level_;
  state.queue_lifo = queue_lifo_;
  state.queue_depth = last_queue_depth_;
  state.running = last_running_;
  state.cpu_utilization = last_indicators_.cpu_utilization;
  state.io_utilization = last_indicators_.io_utilization;
  state.memory_utilization = last_indicators_.memory_utilization;
  state.breaker_states = breaker_states_;
  return state;
}

void Telemetry::FinalizeProfile(ProfileStore::Slot slot,
                                std::string_view outcome,
                                std::string_view detail) {
  if (!profiling_ || !profiles_.Finalize(slot, Now(), outcome, detail)) return;
  // The finalized view is written straight into the flight recorder's ring
  // (or a scratch profile), reusing its string capacity.
  QueryProfile* profile =
      flight_recorder_enabled_ ? recorder_.NextProfile() : nullptr;
  if (profile == nullptr) profile = &scratch_profile_;
  profiles_.CopyTo(slot, profile);
  auto& counters = workload_series_[profile->workload].phase_seconds;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (profile->phase_seconds[i] <= 0.0) continue;
    if (counters[i] == nullptr) {
      counters[i] = &metrics_.GetCounter(
          "wlm_phase_seconds_total",
          {{"phase", PhaseToString(static_cast<Phase>(i))},
           {"workload", profile->workload}});
    }
    counters[i]->Increment(profile->phase_seconds[i]);
  }
}

void Telemetry::AddPhaseTiles(Tracer::Slot slot, double start,
                              const ExecPhaseTotals& phases) {
  // Sequential layout of the segment's decomposition: tiles partition
  // [dispatch, finish) exactly because the buckets sum to the segment's
  // wall time. Ordering is presentational (true interleaving is finer).
  const std::pair<Phase, double> tiles[] = {
      {Phase::kLockWait, phases.lock_wait_seconds},
      {Phase::kCpuRun, phases.cpu_run_seconds},
      {Phase::kIoStall, phases.io_stall_seconds},
      {Phase::kMemoryStall, phases.memory_stall_seconds},
      {Phase::kThrottled, phases.throttled_seconds},
      {Phase::kSuspendFlush, phases.suspend_flush_seconds},
  };
  double cursor = start;
  for (const auto& [phase, seconds] : tiles) {
    if (seconds <= 0.0) continue;
    tracer_.AddClosedSpan(slot, SpanKind::kPhase, cursor, cursor + seconds,
                          TraceText(TraceText::kPhase,
                                    static_cast<int>(phase)));
    cursor += seconds;
  }
}

void Telemetry::TriggerFlightRecorder(const std::string& reason) {
  if (!flight_recorder_enabled_ || !profiling_) return;
  size_t before = recorder_.postmortems().size();
  recorder_.Trigger(reason, ControllerState(), event_log_);
  if (recorder_.postmortems().size() > before) {
    metrics_.GetCounter("wlm_flight_recorder_dumps_total").Increment();
  }
}

}  // namespace wlm
