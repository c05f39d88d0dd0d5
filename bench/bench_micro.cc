// S6 — google-benchmark microbenchmarks of the substrate hot paths: the
// simulation event queue, the lock manager, the optimizer, the ML
// predictors, the monitor statistics, per-query telemetry, and an
// end-to-end simulated
// queries-per-wall-second figure for the whole workload-management
// pipeline.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "scheduling/queue_schedulers.h"
#include "telemetry/event_log.h"
#include "telemetry/telemetry.h"

namespace {

using namespace wlm;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule((i * 37) % 100, [] {});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    LockManager lm;
    for (TxnId txn = 1; txn <= 100; ++txn) {
      for (int k = 0; k < 5; ++k) {
        (void)lm.Acquire(txn, static_cast<LockKey>(rng.Zipf(1000, 0.8)),
                   rng.Bernoulli(0.5) ? LockMode::kExclusive
                                      : LockMode::kShared);
      }
    }
    for (TxnId txn = 1; txn <= 100; ++txn) lm.ReleaseAll(txn);
    benchmark::DoNotOptimize(lm.txn_count());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_LockManagerAcquireRelease);

// What the engine runs per OLTP query: one reused manager, one transaction
// at a time taking 3 Zipf keys (about half exclusive), reading its hold
// time and releasing. Once the manager's tables are warm this allocates
// nothing; `held` must read 0 after the loop.
void BM_LockManagerSteadyState(benchmark::State& state) {
  LockManager lm;
  double now = 0.0;
  lm.set_time_source([&now] { return now; });
  Rng rng(1);
  TxnId txn = 0;
  for (auto _ : state) {
    ++txn;
    for (int k = 0; k < 3; ++k) {
      (void)lm.Acquire(txn, static_cast<LockKey>(rng.Zipf(2000, 0.8)),
                       rng.Bernoulli(0.5) ? LockMode::kExclusive
                                          : LockMode::kShared);
    }
    now += 0.001;
    benchmark::DoNotOptimize(lm.HeldSeconds(txn, now));
    lm.ReleaseAll(txn);
  }
  state.counters["held"] = static_cast<double>(lm.total_locks_held());
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_LockManagerSteadyState);

void BM_DeadlockDetection(benchmark::State& state) {
  // A contended lock table with long wait chains.
  LockManager lm;
  for (TxnId txn = 1; txn <= 200; ++txn) {
    (void)lm.Acquire(txn, txn, LockMode::kExclusive);
    (void)lm.Acquire(txn, (txn % 200) + 1, LockMode::kExclusive);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.FindDeadlockVictims());
  }
}
BENCHMARK(BM_DeadlockDetection);

void BM_OptimizerBuildPlan(benchmark::State& state) {
  Optimizer optimizer;
  WorkloadGenerator gen(2);
  BiWorkloadConfig shape;
  QuerySpec spec = gen.NextBi(shape);
  for (auto _ : state) {
    spec.id++;
    benchmark::DoNotOptimize(optimizer.BuildPlan(spec));
  }
}
BENCHMARK(BM_OptimizerBuildPlan);

void BM_EngineTickWithQueries(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Simulation sim;
  EngineConfig config;
  config.tick_seconds = 0.05;
  DatabaseEngine engine(&sim, config);
  // Lock-free queries with ~1e9 CPU-seconds and I/O ops never finish, so
  // every timed tick shares capacity among exactly n active queries.
  for (int i = 0; i < n; ++i) {
    QuerySpec spec;
    spec.id = static_cast<QueryId>(i + 1);
    spec.cpu_seconds = 1e9;
    spec.io_ops = 1e9;
    spec.memory_mb = 1.0;
    (void)engine.Dispatch(spec, {});
  }
  sim.RunFor(1.0);  // warm up
  for (auto _ : state) {
    sim.RunFor(0.05);  // one tick
  }
  state.counters["active"] = static_cast<double>(engine.running_count());
  if (engine.running_count() != static_cast<size_t>(n)) {
    state.SkipWithError("active population shrank during the run");
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineTickWithQueries)->Arg(8)->Arg(64)->Arg(256);

// One query's telemetry as the WorkloadManager drives it (submit, admit,
// dispatch, run segment with lock wait, completion; every eighth query
// throttled) plus its control-plane events, on a facade and event log
// warmed past every default retention window. The retained counts are
// published so a check can confirm the windows stayed full (population,
// not timing).
void BM_TelemetryQueryLifecycle(benchmark::State& state) {
  Simulation sim;
  EventLog log;
  Telemetry telemetry(&sim, /*monitor=*/nullptr, &log);
  const std::string workload = "oltp";
  QueryOutcome outcome;
  outcome.cpu_used = 0.004;
  outcome.io_used = 12.0;
  outcome.buffer_hit_ratio = 0.9;
  outcome.lock_wait_seconds = 0.001;
  outcome.phases.lock_wait_seconds = 0.001;
  outcome.phases.cpu_run_seconds = 0.004;
  outcome.phases.io_stall_seconds = 0.002;
  QueryId id = 0;
  auto lifecycle = [&] {
    ++id;
    sim.RunFor(0.01);
    telemetry.OnSubmit(id, workload, QueryKind::kOltpTransaction);
    log.Append(sim.Now(), WlmEventType::kSubmitted, id, workload);
    telemetry.OnAdmitted(id, workload);
    sim.RunFor(0.002);
    log.Append(sim.Now(), WlmEventType::kDispatched, id, workload);
    telemetry.OnDispatch(id, workload, /*resumed=*/false);
    outcome.dispatch_time = sim.Now();
    if (id % 8 == 0) telemetry.OnThrottle(id, workload, 0.5);
    sim.RunFor(0.007);
    log.Append(sim.Now(), WlmEventType::kCompleted, id, workload);
    telemetry.OnRunSegment(id, workload, outcome);
    telemetry.OnTerminal(id, workload, "completed", 0.009, 0.002, outcome);
  };
  // Three events per query: 24k queries fill the 64k-event window too.
  for (int i = 0; i < 24000; ++i) lifecycle();
  for (auto _ : state) {
    lifecycle();
    benchmark::DoNotOptimize(telemetry.tracer().size());
  }
  state.counters["traces"] = static_cast<double>(telemetry.tracer().size());
  state.counters["profiles"] =
      static_cast<double>(telemetry.profiles().size());
  state.counters["events"] = static_cast<double>(log.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryQueryLifecycle);

void BM_DecisionTreePredict(benchmark::State& state) {
  Dataset data({"a", "b", "c"});
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    double a = rng.Uniform(0, 10), b = rng.Uniform(0, 10),
           c = rng.Uniform(0, 10);
    data.Add({a, b, c}, a + b > c ? 1.0 : 0.0);
  }
  DecisionTree tree;
  tree.Fit(data);
  std::vector<double> x = {3.0, 4.0, 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(x));
  }
}
BENCHMARK(BM_DecisionTreePredict);

void BM_KnnPredict(benchmark::State& state) {
  Dataset data({"a", "b", "c"});
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    data.Add({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)},
             rng.Uniform(0, 100));
  }
  KnnRegressor knn(5);
  knn.Fit(data);
  std::vector<double> x = {0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.Predict(x));
  }
}
BENCHMARK(BM_KnnPredict);

void BM_PercentilesAddQuery(benchmark::State& state) {
  Percentiles p;
  Rng rng(6);
  int64_t i = 0;
  for (auto _ : state) {
    p.Add(rng.Uniform(0, 100));
    if (++i % 64 == 0) benchmark::DoNotOptimize(p.Percentile(95));
  }
}
BENCHMARK(BM_PercentilesAddQuery);

// End-to-end: how many simulated OLTP transactions per wall-second the
// whole pipeline processes (submit -> classify -> schedule -> engine ->
// complete).
void BM_PipelineSimulatedOltp(benchmark::State& state) {
  for (auto _ : state) {
    wlm_bench::BenchRig rig;
    wlm_bench::DefineStandardWorkloads(&rig.wlm);
    rig.wlm.set_scheduler(std::make_unique<PriorityScheduler>(32));
    WorkloadGenerator gen(7);
    OltpWorkloadConfig shape;
    Rng arrivals(7);
    OpenLoopDriver driver(
        &rig.sim, &arrivals, 100.0, [&] { return gen.NextOltp(shape); },
        [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
    driver.Start(10.0);
    rig.sim.RunUntil(20.0);
    state.counters["sim_txns"] = static_cast<double>(
        rig.monitor.tag_stats("oltp").completed);
    benchmark::DoNotOptimize(rig.engine.counters().completed);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PipelineSimulatedOltp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
