// Observability demo: a mixed OLTP + BI run under priority scheduling,
// a BI concurrency throttle, duty-cycle throttling and one scheduled
// suspend/resume — with the full telemetry surface exported afterwards:
//
//   trace.json    Chrome trace-event JSON; open in https://ui.perfetto.dev
//                 or chrome://tracing (one thread per query, spans for
//                 queue wait, admission, execution, throttle windows,
//                 suspend flush and suspended wait)
//   metrics.prom  Prometheus text exposition of every labeled metric
//   series.csv    long-form monitor time series (series,time,value)
//   events.jsonl  the control-plane event log, one JSON object per line
//
// Build & run:  ./build/examples/trace_explorer

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_set>
#include <vector>

#include "admission/threshold_admission.h"
#include "characterization/static_classifier.h"
#include "core/workload_manager.h"
#include "scheduling/queue_schedulers.h"
#include "telemetry/exporters.h"
#include "workloads/generators.h"

int main() {
  using namespace wlm;

  Simulation sim;
  EngineConfig config;
  config.num_cpus = 8;
  config.io_ops_per_second = 6000.0;
  config.memory_mb = 4096.0;
  DatabaseEngine engine(&sim, config);
  Monitor monitor(&sim, &engine, /*interval=*/0.25);
  monitor.Start();
  WorkloadManager manager(&sim, &engine, &monitor);

  // Two workloads: revenue-critical OLTP and best-effort BI with an
  // (ambitious) response-time objective for the watchdog to check.
  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  oltp.slos.push_back(ServiceLevelObjective::PercentileResponse(95, 0.5));
  manager.DefineWorkload(oltp);
  WorkloadDefinition bi;
  bi.name = "bi";
  bi.priority = BusinessPriority::kLow;
  bi.slos.push_back(ServiceLevelObjective::PercentileResponse(90, 5.0));
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

  manager.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/12));
  MplAdmission::Config mpl;
  mpl.per_workload_mpl["bi"] = 3;  // BI queues behind its concurrency cap
  manager.AddAdmissionController(std::make_unique<MplAdmission>(mpl));

  // Duty-cycle throttle every running BI query once (Parekh-style
  // resource throttling, applied from the monitor's sampling loop).
  std::unordered_set<QueryId> throttled;
  monitor.AddSampleListener([&](const SystemIndicators&) {
    for (const Request* r : manager.Running()) {
      if (r->workload == "bi" && throttled.insert(r->spec.id).second) {
        (void)manager.ThrottleRequest(r->spec.id, 0.6);
      }
    }
  });

  // One scheduled suspend: at t=30 park the longest-running BI query;
  // the scheduler resumes it when a slot frees up.
  sim.ScheduleAt(30.0, [&] {
    for (const Request* r : manager.Running()) {
      if (r->workload == "bi") {
        (void)manager.SuspendRequest(r->spec.id, SuspendStrategy::kDumpState);
        break;
      }
    }
  });

  // Open-loop arrivals: a fast transaction stream + a trickle of heavy
  // analytical queries (clamped so every BI query spans several monitor
  // samples and therefore picks up its throttle window).
  WorkloadGenerator gen(/*seed=*/7);
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  Rng arrivals(11);
  OpenLoopDriver oltp_driver(
      &sim, &arrivals, /*rate=*/40.0, [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &sim, &arrivals, /*rate=*/0.5,
      [&] {
        QuerySpec spec = gen.NextBi(bi_shape);
        if (spec.cpu_seconds < 2.0) spec.cpu_seconds = 2.0;
        return spec;
      },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  oltp_driver.Start(60.0);
  bi_driver.Start(60.0);
  sim.RunUntil(120.0);

  // --- export everything ---------------------------------------------------
  Telemetry& telemetry = manager.telemetry();
  {
    std::ofstream out("trace.json");
    WriteChromeTrace(telemetry.tracer(), out, &monitor);
  }
  {
    std::ofstream out("metrics.prom");
    WritePrometheus(telemetry.metrics(), out);
  }
  {
    std::ofstream out("series.csv");
    WriteSeriesCsv(monitor, out);
  }
  {
    std::ofstream out("events.jsonl");
    WriteEventLogJsonl(manager.event_log(), out);
  }

  // Synthetic tracks (fault windows, overload-control actions) live in a
  // reserved id block above every real QueryId — count them separately
  // so "query threads" means queries.
  std::size_t query_traces = 0, synthetic_tracks = 0;
  for (const QueryTrace& trace : telemetry.tracer().Traces()) {
    if (IsSyntheticQueryId(trace.id)) {
      ++synthetic_tracks;
    } else {
      ++query_traces;
    }
  }
  std::printf("wrote trace.json (%zu query threads + %zu synthetic tracks), "
              "metrics.prom (%zu families / %zu series), series.csv, "
              "events.jsonl\n",
              query_traces, synthetic_tracks,
              telemetry.metrics().family_count(),
              telemetry.metrics().series_count());
  std::printf("oltp completed %lld, bi completed %lld, slo violations %zu\n",
              static_cast<long long>(monitor.tag_stats("oltp").completed),
              static_cast<long long>(monitor.tag_stats("bi").completed),
              telemetry.watchdog().violations().size());

  // Outcome explainer: the latency decomposition's one-line verdict for
  // the slowest queries (the same line wlm_top and the flight recorder
  // print).
  const std::vector<QueryProfile> profiles = telemetry.profiles().Profiles();
  std::vector<const QueryProfile*> slowest;
  for (const QueryProfile& p : profiles) {
    if (p.terminal()) slowest.push_back(&p);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const QueryProfile* a, const QueryProfile* b) {
              if (a->WallSeconds() != b->WallSeconds()) {
                return a->WallSeconds() > b->WallSeconds();
              }
              return a->id < b->id;
            });
  std::printf("\nslowest queries, explained:\n");
  for (size_t i = 0; i < slowest.size() && i < 5; ++i) {
    const QueryProfile& p = *slowest[i];
    std::printf("  q%-4llu [%s] wall=%6.2fs  %s\n",
                static_cast<unsigned long long>(p.id), p.workload.c_str(),
                p.WallSeconds(), ExplainOutcome(p).c_str());
  }
  std::printf("\nopen trace.json in https://ui.perfetto.dev to explore "
              "(phase tiles render under the \"wlm phases\" process)\n");
  return 0;
}
