// Allocation guards for the engine's hot paths: a steady population of
// running queries must cost the same number of heap allocations per tick
// whatever its size, the lock manager must stop allocating once its
// tables have seen their high-water mark, and so must the per-query
// telemetry once its retention windows are full, the synthetic telemetry
// tracks, and warm throttle and pause requests. This binary replaces the
// global operator new with a counting one, so it is built as its own test
// executable.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "common/rng.h"
#include "core/workload_manager.h"
#include "engine/engine.h"
#include "engine/lock_manager.h"
#include "engine/monitor.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"

namespace {

size_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wlm {
namespace {

constexpr int kTicks = 100;

/// A lock-free query with ~1e9 CPU-seconds and I/O ops: it never finishes
/// within the test, so the population stays fixed.
QuerySpec EndlessQuery(QueryId id) {
  QuerySpec spec;
  spec.id = id;
  spec.cpu_seconds = 1e9;
  spec.io_ops = 1e9;
  spec.memory_mb = 1.0;
  return spec;
}

/// Heap allocations over kTicks engine ticks at a steady `population`,
/// after kTicks of warm-up. With `grouped`, every other query is tagged
/// into one group-share pool.
size_t AllocationsPerTicks(int population, bool grouped) {
  Simulation sim;
  EngineConfig config;
  DatabaseEngine engine(&sim, config);
  if (grouped) {
    EXPECT_TRUE(engine.SetGroupShares("pool", {2.0, 3.0}).ok());
  }
  for (int i = 0; i < population; ++i) {
    ExecutionContext ctx;
    ctx.tag = grouped && i % 2 == 0 ? "pool" : "solo";
    EXPECT_TRUE(engine
                    .Dispatch(EndlessQuery(static_cast<QueryId>(i + 1)),
                              std::move(ctx))
                    .ok());
  }
  const double window = kTicks * config.tick_seconds;
  sim.RunFor(window);
  const size_t before = g_allocations;
  sim.RunFor(window);
  const size_t allocations = g_allocations - before;
  EXPECT_EQ(engine.running_count(), static_cast<size_t>(population));
  return allocations;
}

TEST(EngineAllocTest, TickAllocationsDoNotGrowWithActiveQueries) {
  for (bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    const size_t at8 = AllocationsPerTicks(8, grouped);
    const size_t at64 = AllocationsPerTicks(64, grouped);
    const size_t at256 = AllocationsPerTicks(256, grouped);
    std::cout << (grouped ? "grouped" : "ungrouped") << " allocations per "
              << kTicks << " ticks at 8/64/256 queries: " << at8 << " / "
              << at64 << " / " << at256 << "\n";
    EXPECT_EQ(at8, at64);
    EXPECT_EQ(at8, at256);
    // What is left is the simulation's own event bookkeeping (one
    // reschedule per tick plus the deadlock detector), not the tick.
    EXPECT_LT(at8, static_cast<size_t>(2 * kTicks));
  }
}

/// Heap allocations of `txns` sequential OLTP-shaped transactions after as
/// many again of warm-up: each takes three Zipf-distributed keys, about
/// half exclusively, reads its hold time and releases. Nothing contends.
size_t UncontendedLockAllocations(int txns) {
  LockManager lm;
  double now = 0.0;
  lm.set_time_source([&now] { return now; });
  Rng rng(7);
  TxnId next = 1;
  size_t before = 0;
  for (int i = 0; i < 2 * txns; ++i) {
    if (i == txns) before = g_allocations;
    const TxnId txn = next++;
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(lm.Acquire(txn, static_cast<LockKey>(rng.Zipf(2000, 0.8)),
                             rng.Bernoulli(0.5) ? LockMode::kExclusive
                                                : LockMode::kShared));
    }
    now += 0.001;
    (void)lm.HeldSeconds(txn, now);
    lm.ReleaseAll(txn);
  }
  EXPECT_EQ(lm.txn_count(), 0u);
  return g_allocations - before;
}

TEST(EngineAllocTest, UncontendedLockingAllocatesNothingAfterWarmUp) {
  EXPECT_EQ(UncontendedLockAllocations(1000), 0u);
}

/// Heap allocations of `txns` contended transactions after a warm-up long
/// enough for every recycled buffer to reach its high-water capacity.
/// Eight transactions are live at a time on six hot keys; each takes a
/// shared lock, upgrades it, then takes one more key, stopping at the
/// first queued request. Slots are released round-robin whether their
/// transaction holds, waits or has finished, so the run mixes waits,
/// upgrades (and their queue jumps) and cancelled waits.
size_t ContendedLockAllocations(int txns) {
  constexpr int kSlots = 8;
  constexpr int kWarmUp = 100000;
  LockManager lm;
  double now = 0.0;
  lm.set_time_source([&now] { return now; });
  Rng rng(11);
  TxnId slot_txn[kSlots] = {};
  TxnId next = 1;
  size_t before = 0;
  for (int i = 0; i < kWarmUp + txns; ++i) {
    if (i == kWarmUp) before = g_allocations;
    TxnId& txn = slot_txn[i % kSlots];
    lm.ReleaseAll(txn);
    txn = next++;
    const auto hot = static_cast<LockKey>(rng.UniformInt(1, 6));
    const auto other = static_cast<LockKey>(rng.UniformInt(1, 6));
    if (lm.Acquire(txn, hot, LockMode::kShared) &&
        lm.Acquire(txn, hot, LockMode::kExclusive)) {
      (void)lm.Acquire(txn, other, LockMode::kShared);
    }
    now += 0.001;
    (void)lm.HeldSeconds(txn, now);
  }
  return g_allocations - before;
}

TEST(EngineAllocTest, ContendedLockingAllocationsDoNotGrowWithTransactions) {
  const size_t at1k = ContendedLockAllocations(1000);
  const size_t at10k = ContendedLockAllocations(10000);
  std::cout << "contended lock allocations after 1k / 10k transactions: "
            << at1k << " / " << at10k << "\n";
  EXPECT_EQ(at1k, at10k);
}

/// Heap allocations of `queries` full per-query telemetry lifecycles, as
/// the WorkloadManager drives them, after as many again of warm-up: the
/// warm-up runs every retention window (traces, profiles, flight-recorder
/// ring, event log and its detail ring) past full. Every eighth query is
/// rejected and every eighth shed from the queue; the rest are admitted,
/// dispatched, run and completed, one in four of them throttled and one in
/// eight killed.
size_t TelemetryLifecycleAllocations(int queries) {
  Simulation sim;
  EventLog log(256);
  TelemetryOptions options;
  options.max_traces = 64;
  options.max_profiles = 64;
  Telemetry telemetry(&sim, /*monitor=*/nullptr, &log, options);
  // The strings the manager would pass in, built once.
  const std::string workload = "oltp";
  const std::string gate = "mpl";
  const std::string message = "mpl limit of 32 reached for oltp";
  const std::string reason = "queue_full";
  QueryOutcome outcome;
  outcome.cpu_used = 0.004;
  outcome.io_used = 12.0;
  outcome.buffer_hit_ratio = 0.9;
  outcome.lock_wait_seconds = 0.001;
  outcome.phases.lock_wait_seconds = 0.001;
  outcome.phases.cpu_run_seconds = 0.004;
  outcome.phases.io_stall_seconds = 0.002;
  size_t before = 0;
  for (int i = 0; i < 2 * queries; ++i) {
    if (i == queries) before = g_allocations;
    const auto id = static_cast<QueryId>(i + 1);
    sim.RunFor(0.01);
    telemetry.OnSubmit(id, workload, QueryKind::kOltpTransaction);
    log.Append(sim.Now(), WlmEventType::kSubmitted, id, workload);
    if (i % 8 == 0) {
      log.Append(sim.Now(), WlmEventType::kRejected, id, workload, message);
      telemetry.OnRejected(id, workload, gate, message);
      continue;
    }
    telemetry.OnAdmitted(id, workload);
    sim.RunFor(0.002);
    if (i % 8 == 1) {
      log.Append(sim.Now(), WlmEventType::kShed, id, workload, reason);
      telemetry.OnShed(id, workload, reason);
      continue;
    }
    log.Append(sim.Now(), WlmEventType::kDispatched, id, workload);
    telemetry.OnDispatch(id, workload, /*resumed=*/false);
    outcome.dispatch_time = sim.Now();
    if (i % 4 == 2) {
      log.Append(sim.Now(), WlmEventType::kThrottled, id, workload,
                 "duty=0.500000");
      telemetry.OnThrottle(id, workload, 0.5);
    }
    sim.RunFor(0.007);
    const bool killed = i % 8 == 3;
    log.Append(sim.Now(),
               killed ? WlmEventType::kKilled : WlmEventType::kCompleted, id,
               workload);
    telemetry.OnRunSegment(id, workload, outcome);
    telemetry.OnTerminal(id, workload, killed ? "killed" : "completed", 0.009,
                         0.002, outcome);
  }
  EXPECT_EQ(telemetry.tracer().size(), 64u);
  EXPECT_EQ(telemetry.profiles().size(), 64u);
  EXPECT_EQ(log.size(), 256u);
  return g_allocations - before;
}

TEST(EngineAllocTest, TelemetryQueryLifecycleAllocatesNothingAfterWarmUp) {
  const size_t allocations = TelemetryLifecycleAllocations(4096);
  std::cout << "telemetry allocations over 4096 warm query lifecycles: "
            << allocations << "\n";
  EXPECT_EQ(allocations, 0u);
}

/// Heap allocations of `steps` fault / breaker steps on the synthetic
/// tracks, after 8 * max_traces steps of warm-up: the tracks keep their
/// newest max_traces spans and instants and recycle their side-pool
/// strings, so the steps reuse memory instead of growing it.
size_t SyntheticTrackAllocations(int steps) {
  constexpr size_t kMaxTraces = 16;
  Tracer tracer(kMaxTraces);
  const QueryId faults = SyntheticTrackId(SyntheticTrack::kFaults);
  const QueryId overload = SyntheticTrackId(SyntheticTrack::kOverload);
  tracer.GetOrCreate(faults, "faults", QueryKind::kUtility, 0.0);
  tracer.GetOrCreate(overload, "overload", QueryKind::kUtility, 0.0);
  const std::string begin = "fault_begin";
  const std::string detail = "cpu_degradation magnitude=0.5 on shard 2";
  const std::string breaker = "breaker_open reporting: p99 over budget";
  size_t before = 0;
  const int warm_up = 8 * static_cast<int>(kMaxTraces);
  for (int i = 0; i < warm_up + steps; ++i) {
    if (i == warm_up) before = g_allocations;
    const double now = i;
    tracer.Instant(faults, begin, now, detail);
    tracer.AddClosedSpan(faults, SpanKind::kFault, now - 0.5, now, detail);
    tracer.Instant(overload, "breaker_open", now, breaker);
    tracer.AddClosedSpan(overload, SpanKind::kOverload, now - 1.0, now,
                         breaker);
  }
  const size_t allocations = g_allocations - before;
  EXPECT_EQ(tracer.Find(faults)->spans.size(), kMaxTraces);
  EXPECT_EQ(tracer.Find(overload)->instants.size(), kMaxTraces);
  return allocations;
}

TEST(EngineAllocTest, SyntheticTrackStepsAllocateNothingAfterWarmUp) {
  const size_t allocations = SyntheticTrackAllocations(4096);
  std::cout << "synthetic-track allocations over 4096 warm steps: "
            << allocations << "\n";
  EXPECT_EQ(allocations, 0u);
}

/// Heap allocations of warm WorkloadManager::ThrottleRequest and
/// PauseRequest calls on running queries, as the execution controllers
/// issue them, over `rounds` rounds after kWarmUpRounds. Each round
/// submits four short queries, throttles, pauses and unthrottles each
/// while it runs, then runs them to completion; only the calls are
/// counted. The event details ("duty=0.500000", "0.050000s") fit in the
/// short-string buffer, and the warm-up (about 7 events per query) fills
/// the manager's 65536-event log and every telemetry window.
size_t ThrottleAndPauseAllocations(int rounds) {
  constexpr int kWarmUpRounds = 3072;
  Simulation sim;
  EngineConfig cfg;
  cfg.num_cpus = 4;
  cfg.io_ops_per_second = 1000.0;
  cfg.tick_seconds = 0.01;
  DatabaseEngine engine(&sim, cfg);
  Monitor monitor(&sim, &engine, 0.5);
  WlmConfig config;
  config.telemetry.max_traces = 16;
  config.telemetry.max_profiles = 16;
  config.retained_requests_capacity = 16;
  WorkloadManager wlm(&sim, &engine, &monitor, config);
  monitor.Start();
  size_t allocations = 0;
  bool all_ok = true;
  QueryId next_id = 1;
  for (int round = 0; round < kWarmUpRounds + rounds; ++round) {
    const QueryId first = next_id;
    for (int k = 0; k < 4; ++k) {
      QuerySpec spec;
      spec.id = next_id++;
      spec.cpu_seconds = 0.05;
      spec.io_ops = 10.0;
      spec.memory_mb = 1.0;
      all_ok = wlm.Submit(spec).ok() && all_ok;
    }
    const size_t before = g_allocations;
    for (QueryId id = first; id < next_id; ++id) {
      all_ok = wlm.ThrottleRequest(id, 0.5).ok() && all_ok;
      all_ok = wlm.PauseRequest(id, 0.05).ok() && all_ok;
      all_ok = wlm.ThrottleRequest(id, 1.0).ok() && all_ok;
    }
    if (round >= kWarmUpRounds) allocations += g_allocations - before;
    sim.RunFor(0.5);
  }
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(wlm.running_count(), 0u);
  return allocations;
}

TEST(EngineAllocTest, ThrottleAndPauseRequestsAllocateNothingWhenWarm) {
  const size_t allocations = ThrottleAndPauseAllocations(256);
  std::cout << "allocations over 3072 warm throttle/pause calls: "
            << allocations << "\n";
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace wlm
