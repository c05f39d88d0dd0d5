// wlm_top: a `top`-style dashboard over the per-query latency
// decomposition. Runs a mixed OLTP + BI system through an overloaded,
// fault-disturbed hour of simulated traffic, then prints:
//
//   - per-service-class phase rollups (where each class's seconds went)
//   - the top queries by wall time with an inline phase bar and the
//     outcome explainer ("slow: 78% lock_wait", "shed: brownout level 2")
//   - resource attribution for the heaviest consumers
//   - the flight recorder's post-mortem summary
//   - a cluster rollup: the same mixed hour spread over a 4-shard
//     cluster, with per-shard routing/health/P99 columns
//   - a query-journey timeline: one hedged query's lives (primary on the
//     suspected shard, hedge on the healthy one, loser cancelled)
//
// and writes wlm_top_postmortem.jsonl / wlm_top_postmortem.txt with the
// black-box dumps captured at each anomaly trigger.
//
// Build & run:  ./build/examples/wlm_top
//
// `wlm_top --jsonl` swaps the human dashboard for one JSON object per
// line (same data, fixed field order, %.6f numbers). The run is seeded,
// so the JSONL output is byte-identical across invocations — CI diffs
// dashboards with it.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "characterization/static_classifier.h"
#include "cluster/cluster.h"
#include "common/table_printer.h"
#include "core/workload_manager.h"
#include "execution/timeout_escalation.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "scheduling/queue_schedulers.h"
#include "workloads/generators.h"

namespace {

using namespace wlm;

/// One character per 4% of the phase sum, so a 25-char bar ~ 100%.
std::string PhaseBar(const QueryProfile& p) {
  static const char kGlyphs[kPhaseCount] = {'q', 'Q', 'L', 'c', 'i',
                                            'm', 't', 'f', 's', 'r'};
  std::string bar;
  double sum = p.PhaseSum();
  if (sum <= 0.0) return bar;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    int cells = static_cast<int>(p.phase_seconds[i] / sum * 25.0 + 0.5);
    bar.append(static_cast<size_t>(cells), kGlyphs[i]);
  }
  return bar;
}

/// Minimal JSON string escaping for the --jsonl surface.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlm;

  const bool jsonl = argc > 1 && std::string(argv[1]) == "--jsonl";

  Simulation sim;
  EngineConfig engine_config;
  engine_config.num_cpus = 4;
  engine_config.io_ops_per_second = 2000.0;
  engine_config.memory_mb = 2048.0;
  DatabaseEngine engine(&sim, engine_config);
  Monitor monitor(&sim, &engine, /*interval=*/0.5);
  monitor.Start();

  WlmConfig config;
  config.resilience.enabled = true;
  config.resilience.max_retries = 3;
  config.resilience.retry_backoff_seconds = 0.25;
  config.overload.enabled = true;
  config.overload.codel.queue_capacity = 64;
  config.overload.shedding = true;
  config.overload.brownout = true;
  WorkloadManager manager(&sim, &engine, &monitor, config);

  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  oltp.slos.push_back(ServiceLevelObjective::PercentileResponse(95, 0.5));
  manager.DefineWorkload(oltp);
  WorkloadDefinition bi;
  bi.name = "bi";
  bi.priority = BusinessPriority::kLow;
  bi.slos.push_back(ServiceLevelObjective::AvgResponse(8.0));
  manager.DefineWorkload(bi);

  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule oltp_rule;
  oltp_rule.workload = "oltp";
  oltp_rule.kind = QueryKind::kOltpTransaction;
  classifier->AddRule(oltp_rule);
  ClassificationRule bi_rule;
  bi_rule.workload = "bi";
  bi_rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(bi_rule);
  manager.set_classifier(std::move(classifier));
  manager.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/8));

  // BI queries that overstay get throttled, then suspended, then killed.
  TimeoutEscalationController::Config escalation;
  escalation.per_workload["bi"].throttle_after_seconds = 6.0;
  escalation.per_workload["bi"].throttle_duty = 0.5;
  escalation.per_workload["bi"].suspend_after_seconds = 12.0;
  escalation.per_workload["bi"].kill_after_seconds = 24.0;
  escalation.per_workload["bi"].resubmit_on_kill = true;
  manager.AddExecutionController(
      std::make_unique<TimeoutEscalationController>(escalation));

  // A fault window and an arrival surge keep the run from being healthy
  // end to end — the dashboard is for the bad days.
  FaultInjector injector(&sim, &engine, &manager);
  FaultPlan plan;
  plan.seed = 11;
  plan.Add({FaultKind::kDiskDegrade, 15.0, 8.0, /*magnitude=*/0.4});
  FaultEvent surge;
  surge.kind = FaultKind::kArrivalSurge;
  surge.start = 30.0;
  surge.duration = 8.0;
  surge.magnitude = 4.0;
  plan.Add(surge);

  WorkloadGenerator gen(/*seed=*/5);
  Rng oltp_arrivals(41);
  Rng bi_arrivals(42);
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  const double oltp_rate = 25.0;
  OpenLoopDriver oltp_driver(
      &sim, &oltp_arrivals, oltp_rate,
      [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &sim, &bi_arrivals, 0.6, [&] { return gen.NextBi(bi_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  injector.set_surge_handler([&](double factor, bool active) {
    oltp_driver.set_rate(active ? oltp_rate * factor : oltp_rate);
  });
  if (!injector.Arm(plan).ok()) {
    std::cerr << "failed to arm fault plan\n";
    return 1;
  }
  oltp_driver.Start(/*until=*/60.0);
  bi_driver.Start(/*until=*/60.0);
  sim.RunUntil(90.0);

  Telemetry& telemetry = manager.telemetry();

  // --- per-class phase rollups ---------------------------------------------
  if (jsonl) {
    for (const auto& [name, rollup] : telemetry.profiles().rollups()) {
      std::printf("{\"type\":\"class_rollup\",\"class\":\"%s\",\"queries\":%lld,"
                  "\"phase_seconds\":[",
                  JsonEscape(name).c_str(),
                  static_cast<long long>(rollup.count));
      for (size_t i = 0; i < kPhaseCount; ++i) {
        std::printf("%s%.6f", i ? "," : "", rollup.phase_seconds[i]);
      }
      std::printf("]}\n");
    }
  } else {
    std::printf("%-8s %8s", "class", "queries");
    for (size_t i = 0; i < kPhaseCount; ++i) {
      std::printf(" %14s", PhaseToString(static_cast<Phase>(i)));
    }
    std::printf("\n");
    for (const auto& [name, rollup] : telemetry.profiles().rollups()) {
      std::printf("%-8s %8lld", name.c_str(),
                  static_cast<long long>(rollup.count));
      for (size_t i = 0; i < kPhaseCount; ++i) {
        std::printf(" %13.2fs", rollup.phase_seconds[i]);
      }
      std::printf("\n");
    }
  }

  // --- top queries by wall time --------------------------------------------
  const std::vector<QueryProfile> profiles = telemetry.profiles().Profiles();
  std::vector<const QueryProfile*> terminal;
  for (const QueryProfile& p : profiles) {
    if (p.terminal()) terminal.push_back(&p);
  }
  std::sort(terminal.begin(), terminal.end(),
            [](const QueryProfile* a, const QueryProfile* b) {
              if (a->WallSeconds() != b->WallSeconds()) {
                return a->WallSeconds() > b->WallSeconds();
              }
              return a->id < b->id;
            });
  if (jsonl) {
    for (size_t i = 0; i < terminal.size() && i < 12; ++i) {
      const QueryProfile& p = *terminal[i];
      std::printf("{\"type\":\"top_query\",\"query\":%llu,\"class\":\"%s\","
                  "\"wall\":%.6f,\"runs\":%d,\"explainer\":\"%s\"}\n",
                  static_cast<unsigned long long>(p.id),
                  JsonEscape(p.workload).c_str(), p.WallSeconds(),
                  p.run_segments, JsonEscape(ExplainOutcome(p)).c_str());
    }
  } else {
    std::printf("\ntop queries by wall time "
                "(q=queue Q=overload L=lock c=cpu i=io m=mem t=thr f=flush "
                "s=susp r=retry):\n");
    std::printf("%-6s %-6s %8s %4s %-26s %s\n", "query", "class", "wall(s)",
                "runs", "phase bar", "explainer");
    for (size_t i = 0; i < terminal.size() && i < 12; ++i) {
      const QueryProfile& p = *terminal[i];
      std::printf("q%-5llu %-6s %8.2f %4d %-26s %s\n",
                  static_cast<unsigned long long>(p.id), p.workload.c_str(),
                  p.WallSeconds(), p.run_segments, PhaseBar(p).c_str(),
                  ExplainOutcome(p).c_str());
    }
  }

  // --- heaviest resource consumers -----------------------------------------
  std::sort(terminal.begin(), terminal.end(),
            [](const QueryProfile* a, const QueryProfile* b) {
              double ca = a->resources.cpu_seconds + a->resources.io_ops;
              double cb = b->resources.cpu_seconds + b->resources.io_ops;
              if (ca != cb) return ca > cb;
              return a->id < b->id;
            });
  if (jsonl) {
    for (size_t i = 0; i < terminal.size() && i < 6; ++i) {
      const ResourceAttribution& r = terminal[i]->resources;
      std::printf("{\"type\":\"consumer\",\"query\":%llu,\"class\":\"%s\","
                  "\"cpu\":%.6f,\"io_ops\":%.6f,\"peak_mb\":%.6f,"
                  "\"lock\":%.6f,\"spill\":%.6f}\n",
                  static_cast<unsigned long long>(terminal[i]->id),
                  JsonEscape(terminal[i]->workload).c_str(), r.cpu_seconds,
                  r.io_ops, r.peak_memory_mb, r.lock_hold_seconds,
                  r.spill_factor);
    }
  } else {
    std::printf("\nheaviest consumers (resource attribution):\n");
    std::printf("%-6s %-6s %9s %9s %9s %9s %6s\n", "query", "class", "cpu(s)",
                "io ops", "peak MB", "lock(s)", "spill");
    for (size_t i = 0; i < terminal.size() && i < 6; ++i) {
      const ResourceAttribution& r = terminal[i]->resources;
      std::printf("q%-5llu %-6s %9.3f %9.1f %9.1f %9.3f %6.2f\n",
                  static_cast<unsigned long long>(terminal[i]->id),
                  terminal[i]->workload.c_str(), r.cpu_seconds, r.io_ops,
                  r.peak_memory_mb, r.lock_hold_seconds, r.spill_factor);
    }
  }

  // --- flight recorder -----------------------------------------------------
  const FlightRecorder& recorder = telemetry.flight_recorder();
  if (jsonl) {
    for (const PostMortem& dump : recorder.postmortems()) {
      std::printf("{\"type\":\"postmortem\",\"t\":%.6f,\"reason\":\"%s\"}\n",
                  dump.time, JsonEscape(dump.reason).c_str());
    }
  } else {
    std::printf("\nflight recorder: %zu post-mortems (%lld triggers, %lld "
                "suppressed)\n",
                recorder.postmortems().size(),
                static_cast<long long>(recorder.triggers_seen()),
                static_cast<long long>(recorder.triggers_suppressed()));
    for (const PostMortem& dump : recorder.postmortems()) {
      std::printf("  @%6.2fs  %s\n", dump.time, dump.reason.c_str());
    }
    {
      std::ofstream out("wlm_top_postmortem.jsonl");
      recorder.WriteJsonl(out);
    }
    {
      std::ofstream out("wlm_top_postmortem.txt");
      recorder.WriteAscii(out);
    }
    std::printf("wrote wlm_top_postmortem.jsonl and wlm_top_postmortem.txt\n");
  }

  // --- cluster rollup ------------------------------------------------------
  // The same traffic shape, spread over a 4-shard cluster with one shard
  // having a bad stretch — where the per-node story above becomes a
  // routing story.
  {
    Simulation cluster_sim;
    ClusterOptions cluster_options;
    cluster_options.num_shards = 4;
    cluster_options.engine = engine_config;
    cluster_options.wlm = config;
    cluster_options.placement = PlacementPolicyKind::kLeastOutstanding;
    cluster_options.redispatch = true;
    // Failure stack on: heartbeats, crash drain and hedged dispatch — the
    // journey timeline below needs a crash to have something to race.
    cluster_options.health.enabled = true;
    ClusterDispatcher cluster(
        &cluster_sim, cluster_options, [](int, WorkloadManager& shard_wlm) {
          WorkloadDefinition shard_oltp;
          shard_oltp.name = "oltp";
          shard_oltp.priority = BusinessPriority::kHigh;
          shard_wlm.DefineWorkload(shard_oltp);
          WorkloadDefinition shard_bi;
          shard_bi.name = "bi";
          shard_bi.priority = BusinessPriority::kLow;
          shard_wlm.DefineWorkload(shard_bi);
          auto shard_classifier = std::make_unique<StaticClassifier>();
          ClassificationRule rule;
          rule.workload = "oltp";
          rule.kind = QueryKind::kOltpTransaction;
          shard_classifier->AddRule(rule);
          rule.workload = "bi";
          rule.kind = QueryKind::kBiQuery;
          shard_classifier->AddRule(rule);
          shard_wlm.set_classifier(std::move(shard_classifier));
          shard_wlm.set_scheduler(
              std::make_unique<PriorityScheduler>(/*mpl=*/8));
        });
    cluster_sim.ScheduleAt(15.0, [&] {
      cluster.shard(1).wlm().NotifyFaultBegin("disk_degrade", "rollup demo");
    });
    cluster_sim.ScheduleAt(23.0, [&] {
      cluster.shard(1).wlm().NotifyFaultEnd("disk_degrade", 15.0);
    });

    // Shard 2 crashes unannounced mid-run: while the detector only
    // suspects it, deadline-carrying OLTP hedges onto a healthy shard.
    FaultPlan shard_faults;
    FaultEvent shard_crash;
    shard_crash.kind = FaultKind::kShardCrash;
    shard_crash.shard = 2;
    shard_crash.start = 30.0;
    shard_crash.duration = 10.0;
    shard_faults.Add(shard_crash);
    if (!cluster.ArmFaultPlan(shard_faults).ok()) {
      std::cerr << "failed to arm shard fault plan\n";
      return 1;
    }

    WorkloadGenerator cluster_gen(/*seed=*/5);
    Rng cluster_arrivals(43);
    OpenLoopDriver cluster_oltp(
        &cluster_sim, &cluster_arrivals, oltp_rate,
        [&] {
          QuerySpec spec = cluster_gen.NextOltp(oltp_shape);
          spec.deadline_seconds = 5.0;  // arms hedged dispatch
          return spec;
        },
        [&](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
    OpenLoopDriver cluster_bi(
        &cluster_sim, &cluster_arrivals, 0.6,
        [&] { return cluster_gen.NextBi(bi_shape); },
        [&](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
    cluster_oltp.Start(/*until=*/60.0);
    cluster_bi.Start(/*until=*/60.0);
    cluster_sim.RunUntil(90.0);

    if (jsonl) {
      for (int s = 0; s < cluster.num_shards(); ++s) {
        const ClusterShard& shard = cluster.shard(s);
        const EventLog& shard_log = shard.wlm().event_log();
        std::printf(
            "{\"type\":\"shard\",\"shard\":%d,\"routed\":%lld,"
            "\"refused\":%lld,\"redispatched_in\":%lld,\"completed\":%lld,"
            "\"shed\":%lld,\"p99\":%.6f,\"ewma\":%.6f}\n",
            s, static_cast<long long>(shard.routed()),
            static_cast<long long>(shard.refused()),
            static_cast<long long>(shard.redispatched_in()),
            static_cast<long long>(shard_log.CountOf(WlmEventType::kCompleted)),
            static_cast<long long>(shard_log.CountOf(WlmEventType::kShed)),
            shard.P99Seconds(), shard.ewma_latency_seconds());
      }
      std::printf("{\"type\":\"cluster\",\"routed\":%lld,\"rejected\":%lld,"
                  "\"redispatched\":%lld,\"imbalance\":%.6f}\n",
                  static_cast<long long>(cluster.routed_total()),
                  static_cast<long long>(cluster.rejected_total()),
                  static_cast<long long>(cluster.redispatched_total()),
                  cluster.ImbalanceCoefficient());
    } else {
      std::printf("\ncluster rollup (4 shards, least-outstanding placement, "
                  "shard 1 faulted @ [15s, 23s), shard 2 crash @ "
                  "[30s, 40s)):\n");
      TablePrinter cluster_table({"shard", "routed", "refused", "redisp in",
                                  "completed", "shed", "p99 s", "ewma s"});
      for (int s = 0; s < cluster.num_shards(); ++s) {
        const ClusterShard& shard = cluster.shard(s);
        const EventLog& shard_log = shard.wlm().event_log();
        cluster_table.AddRow(
            {std::to_string(s), TablePrinter::Int(shard.routed()),
             TablePrinter::Int(shard.refused()),
             TablePrinter::Int(shard.redispatched_in()),
             TablePrinter::Int(shard_log.CountOf(WlmEventType::kCompleted)),
             TablePrinter::Int(shard_log.CountOf(WlmEventType::kShed)),
             TablePrinter::Num(shard.P99Seconds(), 3),
             TablePrinter::Num(shard.ewma_latency_seconds(), 3)});
      }
      cluster_table.Print(std::cout);
      std::printf("cluster: routed %lld, rejected %lld, re-dispatched %lld, "
                  "imbalance %.3f\n",
                  static_cast<long long>(cluster.routed_total()),
                  static_cast<long long>(cluster.rejected_total()),
                  static_cast<long long>(cluster.redispatched_total()),
                  cluster.ImbalanceCoefficient());
    }

    // --- query journeys ----------------------------------------------------
    // Every life a query lived, stitched into one causal timeline. The
    // interesting ones here are the hedged races around the crash.
    cluster.StitchJourneys();
    std::vector<Journey> hedged;
    for (const Journey& journey : cluster.journeys().journeys()) {
      for (const JourneyLife& life : journey.lives) {
        if (life.cause == RouteCause::kHedge) {
          hedged.push_back(journey);
          break;
        }
      }
    }
    if (jsonl) {
      std::ostringstream journeys_out;
      WriteJourneysJsonl(hedged, journeys_out);
      std::fputs(journeys_out.str().c_str(), stdout);
    } else {
      std::printf("\nhedged query journeys (%zu of %zu journeys raced a "
                  "suspected shard):\n",
                  hedged.size(), cluster.journeys().journeys().size());
      for (size_t i = 0; i < hedged.size() && i < 3; ++i) {
        std::fputs(FormatJourneyAscii(hedged[i]).c_str(), stdout);
      }
    }
  }
  return 0;
}
