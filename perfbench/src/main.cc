// One benchmark process: builds the rig for one workload, generates its
// seeded inputs, advances the simulation through the timed phase in fixed
// simulated steps, drains the rest untimed, checks conservation and prints
// one JSON object with the raw measurements. perfbench/run.py turns these
// into the named metrics.
//
//   wlm_perfbench --workload oltp_point --seed 1 --seconds 5
//                 [--traced --spans spans.bin] [--telemetry 0]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rigs.h"
#include "spans.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed simulated steps of the timed phase: enough that each process's
// step-time p99 has 25 samples beyond it.
constexpr int kSteps = 2500;
// Set-ups per process (rig built and inputs generated again each time);
// setup_s and gen_s are reported for every one.
constexpr int kSetups = 3;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A "Vm...:" field of /proc/self/status in kB, or -1 when unreadable.
int64_t ReadStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::strtoll(line.c_str() + length + 1, nullptr, 10);
    }
  }
  return -1;
}

struct Args {
  Workload workload = Workload::kOltpPoint;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool traced = false;
  bool telemetry = true;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      args->traced = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--telemetry") {
      args->telemetry = value != "0";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0 &&
         (!args->traced || !args->spans_path.empty());
}

/// Layer state polled from public getters.
struct LayerSnapshot {
  int64_t lock_waits = 0;
  int64_t deadlocks = 0;
  int64_t dispatched = 0;
  int64_t engine_completed = 0;
  int64_t retained_requests = 0;
  int64_t retained_traces = 0;
  int64_t retained_profiles = 0;
  int64_t series_points = 0;
  int64_t route_log_len = 0;
  int64_t journeys = 0;
  int64_t redispatched = 0;
  int64_t hedges = 0;
  int64_t journeys_dropped = 0;
};

LayerSnapshot Snapshot(Rig& rig) {
  LayerSnapshot snap;
  for (int s = 0; s < rig.num_shards(); ++s) {
    wlm::DatabaseEngine& engine = rig.engine(s);
    snap.lock_waits += static_cast<int64_t>(engine.lock_manager().waits());
    snap.deadlocks += static_cast<int64_t>(engine.counters().deadlock_aborts);
    snap.dispatched += static_cast<int64_t>(engine.counters().dispatched);
    snap.engine_completed += static_cast<int64_t>(engine.counters().completed);
    const wlm::WorkloadManager& manager = rig.manager(s);
    snap.retained_requests +=
        static_cast<int64_t>(manager.AllRequests().size());
    snap.retained_traces +=
        static_cast<int64_t>(manager.telemetry().tracer().size());
    snap.retained_profiles +=
        static_cast<int64_t>(manager.telemetry().profiles().size());
    for (const auto& [name, series] : rig.monitor(s).all_series()) {
      snap.series_points += static_cast<int64_t>(series.size());
    }
  }
  if (const wlm::ClusterDispatcher* cluster = rig.cluster()) {
    snap.route_log_len = static_cast<int64_t>(cluster->route_log().size());
    snap.journeys = static_cast<int64_t>(cluster->journeys().journeys().size());
    snap.redispatched = cluster->redispatched_total();
    snap.hedges = cluster->hedges_started();
    snap.journeys_dropped = cluster->journeys().dropped();
  }
  return snap;
}

struct Fifth {
  double wall_s = 0.0;
  int64_t resolved = 0;
  int64_t rss_kb = 0;
};

void PrintList(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("], ");
}

int Run(const Args& args) {
  const double horizon =
      args.seconds * SimSecondsPerRunSecond(args.workload);

  // --- set-up: build the rig and generate the inputs, several times -------
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<Arrival> arrivals;
  std::unique_ptr<SpanRecorder> spans;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    spans.reset();
    std::vector<Arrival>().swap(arrivals);
    const Clock::time_point t0 = Clock::now();
    arrivals = GenerateArrivals(args.workload, args.seed, horizon);
    const Clock::time_point t1 = Clock::now();
    if (args.traced) {
      // Reserved so the timed phase never reallocates the span columns;
      // bi_mixed records about ten spans per query.
      spans = std::make_unique<SpanRecorder>(arrivals.size() * 12 + kSteps);
    }
    rig = std::make_unique<Rig>(args.workload, args.seed, horizon,
                                arrivals.size(), args.telemetry, spans.get());
    rig->Feed(&arrivals);
    const Clock::time_point t2 = Clock::now();
    gen_s.push_back(Seconds(t0, t1));
    setup_s.push_back(Seconds(t0, t2));
  }
  const int64_t generated = static_cast<int64_t>(arrivals.size());

  // --- timed phase: fixed simulated steps ----------------------------------
  wlm::Simulation& sim = rig->sim();
  std::vector<double> step_ms;
  step_ms.reserve(kSteps);
  std::vector<Fifth> fifths;
  double active_sum = 0.0;
  double queue_sum = 0.0;
  const Clock::time_point begin = Clock::now();
  for (int k = 1; k <= kSteps; ++k) {
    const double until = horizon * k / kSteps;
    const Clock::time_point t0 = Clock::now();
    if (spans) {
      const int32_t span = spans->Begin(SpanName::kStep, 0);
      sim.RunUntil(until);
      spans->End(span);
      for (int s = 0; s < rig->num_shards(); ++s) {
        active_sum += static_cast<double>(rig->engine(s).running_count());
        queue_sum += static_cast<double>(rig->manager(s).queue_depth());
      }
    } else {
      sim.RunUntil(until);
    }
    const Clock::time_point t1 = Clock::now();
    step_ms.push_back(Seconds(t0, t1) * 1e3);
    if (k % (kSteps / 5) == 0) {
      fifths.push_back({Seconds(begin, t1), rig->ledger().resolved(),
                        ReadStatusKb("VmRSS")});
    }
  }
  const int64_t events_timed = static_cast<int64_t>(sim.events_executed());
  const LayerSnapshot layers = Snapshot(*rig);

  // --- drain (untimed): every submitted query must resolve ---------------
  constexpr double kMaxDrainSeconds = 7200.0;
  constexpr int kSettledSeconds = 5;
  double drained = 0.0;
  int settled_for = 0;
  while (drained < kMaxDrainSeconds && settled_for < kSettledSeconds) {
    drained += 1.0;
    sim.RunUntil(horizon + drained);
    settled_for = rig->Settled() ? settled_for + 1 : 0;
  }
  const bool settled = settled_for >= kSettledSeconds;
  const OutcomeLedger& ledger = rig->ledger();
  const OutcomeLedger::Conservation c = rig->CheckConservation();
  // Single node: every query ends in exactly one terminal event. Cluster:
  // a query may live on several shards (failover, re-dispatch, crash
  // drain, hedge), so it must complete at most once and reach a terminal
  // event unless its journey shows it lost (CheckConservation).
  const int64_t failed =
      c.unknown + c.unresolved +
      (rig->cluster() ? c.multi_completed : c.multi_terminal);
  const int64_t vmhwm_kb = ReadStatusKb("VmHWM");

  bool spans_written = true;
  LayerCounters counters;
  if (spans) {
    counters = spans->counters();
    spans_written = spans->WriteTo(args.spans_path);
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.9g, ",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds);
  std::printf("\"traced\": %s, \"telemetry\": %s, ",
              args.traced ? "true" : "false",
              args.telemetry ? "true" : "false");
  std::printf("\"horizon_sim_s\": %.9g, \"steps\": %d, \"generated\": %lld, ",
              horizon, kSteps, static_cast<long long>(generated));
  PrintList("setup_s", setup_s);
  PrintList("gen_s", gen_s);
  PrintList("step_ms", step_ms);
  std::vector<double> fifth_wall, fifth_resolved, fifth_rss;
  for (const Fifth& f : fifths) {
    fifth_wall.push_back(f.wall_s);
    fifth_resolved.push_back(static_cast<double>(f.resolved));
    fifth_rss.push_back(static_cast<double>(f.rss_kb));
  }
  PrintList("fifth_wall_s", fifth_wall);
  PrintList("fifth_resolved", fifth_resolved);
  PrintList("fifth_rss_kb", fifth_rss);
  std::printf("\"vmhwm_kb\": %lld, ", static_cast<long long>(vmhwm_kb));
  std::printf("\"events_timed\": %lld, ", static_cast<long long>(events_timed));
  std::printf(
      "\"active_sum\": %.17g, \"queue_sum\": %.17g, \"lock_waits\": %lld, "
      "\"deadlocks\": %lld, \"dispatched\": %lld, \"engine_completed\": %lld, "
      "\"retained_requests\": %lld, \"retained_traces\": %lld, "
      "\"retained_profiles\": %lld, \"series_points\": %lld, "
      "\"route_log_len\": %lld, \"journeys\": %lld, \"redispatched\": %lld, "
      "\"hedges\": %lld, \"journeys_dropped\": %lld, "
      "\"arrivals_accepted\": %lld, "
      "\"order_input_total\": %lld, \"spans_written\": %s, ",
      active_sum, queue_sum, static_cast<long long>(layers.lock_waits),
      static_cast<long long>(layers.deadlocks),
      static_cast<long long>(layers.dispatched),
      static_cast<long long>(layers.engine_completed),
      static_cast<long long>(layers.retained_requests),
      static_cast<long long>(layers.retained_traces),
      static_cast<long long>(layers.retained_profiles),
      static_cast<long long>(layers.series_points),
      static_cast<long long>(layers.route_log_len),
      static_cast<long long>(layers.journeys),
      static_cast<long long>(layers.redispatched),
      static_cast<long long>(layers.hedges),
      static_cast<long long>(layers.journeys_dropped),
      static_cast<long long>(counters.arrivals_accepted),
      static_cast<long long>(counters.order_input_total),
      spans_written ? "true" : "false");
  std::printf(
      "\"digest\": \"%016llx\", \"submitted\": %lld, "
      "\"terminal_events\": %lld, \"resolved\": %lld, \"unresolved\": %lld, "
      "\"multi_terminal\": %lld, \"multi_completed\": %lld, "
      "\"unknown\": %lld, \"lost\": %lld, \"failed\": %lld, "
      "\"settled\": %s, \"drain_sim_s\": %.9g}\n",
      static_cast<unsigned long long>(ledger.digest()),
      static_cast<long long>(ledger.submitted()),
      static_cast<long long>(ledger.terminal_events()),
      static_cast<long long>(ledger.resolved()),
      static_cast<long long>(c.unresolved),
      static_cast<long long>(c.multi_terminal),
      static_cast<long long>(c.multi_completed),
      static_cast<long long>(c.unknown), static_cast<long long>(c.lost),
      static_cast<long long>(failed), settled ? "true" : "false", drained);
  return spans_written ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wlm_perfbench --workload oltp_point|bi_mixed|cluster4 "
                 "--seed N --seconds S [--traced --spans PATH] "
                 "[--telemetry 0|1]\n");
    return 2;
  }
  return perfbench::Run(args);
}
