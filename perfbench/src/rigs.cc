#include "rigs.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "admission/threshold_admission.h"
#include "bench_util.h"
#include "characterization/static_classifier.h"
#include "common/rng.h"
#include "execution/kill.h"
#include "faults/fault_plan.h"
#include "scheduling/queue_schedulers.h"
#include "workloads/generators.h"

namespace perfbench {

namespace {

using wlm::QuerySpec;

// --- load model ------------------------------------------------------------
// All arrivals are open-loop Poisson in simulated time; the rates do not
// depend on completions.

// oltp_point: OLTP only, about half the I/O capacity of one node
// (8 I/O ops per transaction against 1500 ops/s).
constexpr double kOltpPointRate = 100.0;
// bi_mixed: OLTP plus lognormal BI on one node. BI demand exceeds what the
// node serves, so the MPL cap stays full and the queue deep. Overload
// protection bounds the queue: BI kills count against the BI service
// class, whose breaker and brownout then shed BI arrivals (the queue
// hovers near half its hard cap).
constexpr double kBiMixedOltpRate = 5.0;
constexpr double kBiMixedBiRate = 1.2;
constexpr int kBiMixedMpl = 32;
constexpr double kBiMixedMaxTimerons = 20000.0;
constexpr double kBiMixedKillSeconds = 90.0;
constexpr int kBiMixedQueueCapacity = 150;
// cluster4: four shards of the same node, OLTP with a 5 s deadline (which
// arms hedged dispatch) plus BI.
constexpr int kClusterShards = 4;
constexpr double kClusterOltpRate = 240.0;
constexpr double kClusterBiRate = 0.4;
constexpr double kClusterOltpDeadline = 5.0;
constexpr int kClusterMpl = 10;
constexpr double kFaultPeriod = 20.0;
constexpr double kFaultDuration = 6.0;

/// The OLTP / BI / utilities consolidation, classified by query kind: the
/// same set-up as wlm_bench::DefineStandardWorkloads, repeated here only so
/// the classifier can be wrapped before set_classifier takes ownership.
void DefineStandardWorkloads(wlm::WorkloadManager* manager,
                             SpanRecorder* spans) {
  const std::pair<const char*, wlm::BusinessPriority> tenants[] = {
      {"oltp", wlm::BusinessPriority::kHigh},
      {"bi", wlm::BusinessPriority::kLow},
      {"utilities", wlm::BusinessPriority::kBackground},
  };
  const wlm::QueryKind kinds[] = {wlm::QueryKind::kOltpTransaction,
                                  wlm::QueryKind::kBiQuery,
                                  wlm::QueryKind::kUtility};
  auto classifier = std::make_unique<wlm::StaticClassifier>();
  for (size_t i = 0; i < 3; ++i) {
    wlm::WorkloadDefinition def;
    def.name = tenants[i].first;
    def.priority = tenants[i].second;
    manager->DefineWorkload(def);
    wlm::ClassificationRule rule;
    rule.workload = tenants[i].first;
    rule.kind = kinds[i];
    classifier->AddRule(rule);
  }
  manager->set_classifier(WrapClassifier(std::move(classifier), spans));
}

void ConfigureBiMixed(wlm::WorkloadManager* manager, SpanRecorder* spans) {
  DefineStandardWorkloads(manager, spans);
  manager->set_scheduler(WrapScheduler(
      std::make_unique<wlm::PriorityScheduler>(kBiMixedMpl), spans));
  wlm::QueryCostAdmission::Config cost;
  cost.max_timerons = kBiMixedMaxTimerons;
  manager->AddAdmissionController(
      WrapAdmission(std::make_unique<wlm::QueryCostAdmission>(cost), spans));
  wlm::QueryKillController::Config kill;
  kill.max_elapsed_seconds = kBiMixedKillSeconds;
  kill.workloads = {"bi"};
  kill.max_victim_priority = wlm::BusinessPriority::kLow;
  manager->AddExecutionController(
      WrapExecution(std::make_unique<wlm::QueryKillController>(kill), spans));
}

/// One shard fault window every kFaultPeriod simulated seconds over the
/// whole arrival horizon, each over before the horizon ends. The timeline
/// is fixed; the seed draws which shard each window hits and whether it is
/// an unannounced crash or a coordinated restart.
wlm::FaultPlan ShardFaults(uint64_t seed, double horizon) {
  wlm::FaultPlan plan;
  plan.seed = seed;
  wlm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  for (double start = kFaultPeriod / 2;
       start + kFaultDuration <= horizon - kFaultPeriod / 2;
       start += kFaultPeriod) {
    wlm::FaultEvent event;
    event.kind = rng.Bernoulli(0.5) ? wlm::FaultKind::kShardCrash
                                    : wlm::FaultKind::kShardRestart;
    event.shard = static_cast<int>(rng.UniformInt(0, kClusterShards - 1));
    event.start = start;
    event.duration = kFaultDuration;
    plan.Add(event);
  }
  return plan;
}

/// Merges independent Poisson streams (rates[i], made by make(i)) into one
/// time-ordered list; ids follow arrival order.
template <typename Make>
std::vector<Arrival> MergeStreams(uint64_t seed, double horizon,
                                  const std::vector<double>& rates,
                                  Make make) {
  std::vector<wlm::Rng> clocks;
  std::vector<double> next;
  for (size_t i = 0; i < rates.size(); ++i) {
    clocks.emplace_back(seed * 0x2545f4914f6cdd1dULL + 17 * (i + 1));
    next.push_back(clocks[i].Exponential(1.0 / rates[i]));
  }
  double expected = 0.0;
  for (double rate : rates) expected += rate * horizon;
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(expected * 1.05) + 16);
  while (true) {
    size_t pick = 0;
    for (size_t i = 1; i < next.size(); ++i) {
      if (next[i] < next[pick]) pick = i;
    }
    if (next[pick] >= horizon) break;
    arrivals.push_back({next[pick], make(pick)});
    next[pick] += clocks[pick].Exponential(1.0 / rates[pick]);
  }
  return arrivals;
}

uint8_t Saturate(uint8_t count) { return count < 3 ? count + 1 : 3; }

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kOltpPoint, Workload::kBiMixed, Workload::kCluster4}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOltpPoint: return "oltp_point";
    case Workload::kBiMixed: return "bi_mixed";
    case Workload::kCluster4: return "cluster4";
  }
  return "?";
}

double SimSecondsPerRunSecond(Workload workload) {
  switch (workload) {
    case Workload::kOltpPoint: return 450.0;
    case Workload::kBiMixed: return 1400.0;
    case Workload::kCluster4: return 140.0;
  }
  return 1.0;
}

std::vector<Arrival> GenerateArrivals(Workload workload, uint64_t seed,
                                      double horizon) {
  wlm::WorkloadGenerator generator(seed);
  const wlm::OltpWorkloadConfig oltp;
  const wlm::BiWorkloadConfig bi;
  switch (workload) {
    case Workload::kOltpPoint:
      return MergeStreams(seed, horizon, {kOltpPointRate},
                          [&](size_t) { return generator.NextOltp(oltp); });
    case Workload::kBiMixed:
      return MergeStreams(
          seed, horizon, {kBiMixedOltpRate, kBiMixedBiRate}, [&](size_t i) {
            return i == 0 ? generator.NextOltp(oltp) : generator.NextBi(bi);
          });
    case Workload::kCluster4:
      return MergeStreams(
          seed, horizon, {kClusterOltpRate, kClusterBiRate}, [&](size_t i) {
            if (i != 0) return generator.NextBi(bi);
            QuerySpec spec = generator.NextOltp(oltp);
            spec.deadline_seconds = kClusterOltpDeadline;
            return spec;
          });
  }
  return {};
}

void OutcomeLedger::OnSubmitted(wlm::QueryId id) {
  if (id >= records_.size()) {
    ++unknown_;
    return;
  }
  records_[id] |= 1;
  ++submitted_;
}

void OutcomeLedger::OnTerminal(int shard, const wlm::Request& request) {
  const wlm::QueryId id = request.spec.id;
  uint64_t finish_bits = 0;
  static_assert(sizeof(finish_bits) == sizeof(request.finish_time));
  std::memcpy(&finish_bits, &request.finish_time, sizeof(finish_bits));
  for (uint64_t word : {static_cast<uint64_t>(shard), id,
                        static_cast<uint64_t>(request.state), finish_bits}) {
    digest_ ^= word;
    digest_ *= 0x100000001b3ULL;
    digest_ ^= digest_ >> 31;
  }
  ++terminal_events_;
  if (id >= records_.size() || (records_[id] & 1) == 0) {
    ++unknown_;
    return;
  }
  uint8_t& record = records_[id];
  const uint8_t terminals = (record >> 1) & 3;
  if (terminals == 0) ++resolved_;
  record = static_cast<uint8_t>((record & ~0x06) | (Saturate(terminals) << 1));
  if (request.state == wlm::RequestState::kCompleted) {
    const uint8_t completions = (record >> 3) & 3;
    record =
        static_cast<uint8_t>((record & ~0x18) | (Saturate(completions) << 3));
  }
}

OutcomeLedger::Conservation OutcomeLedger::Check(
    const std::function<bool(wlm::QueryId)>& is_lost) const {
  Conservation c;
  c.unknown = unknown_;
  for (wlm::QueryId id = 0; id < records_.size(); ++id) {
    const uint8_t record = records_[id];
    if ((record & 1) == 0) continue;
    const int terminals = (record >> 1) & 3;
    const int completions = (record >> 3) & 3;
    if (terminals == 0) ++(is_lost(id) ? c.lost : c.unresolved);
    if (terminals > 1) ++c.multi_terminal;
    if (completions > 1) ++c.multi_completed;
  }
  return c;
}

Rig::Rig(Workload workload, uint64_t seed, double horizon, size_t max_id,
         bool telemetry, SpanRecorder* spans)
    : spans_(spans), ledger_(max_id) {
  wlm::WlmConfig config;
  config.telemetry.enabled = telemetry;
  if (workload == Workload::kCluster4) {
    wlm::ClusterOptions options;
    options.num_shards = kClusterShards;
    options.engine = wlm_bench::DefaultEngine();
    options.placement = wlm::PlacementPolicyKind::kLeastOutstanding;
    options.redispatch = true;
    options.health.enabled = true;
    options.health.hedge = true;
    options.wlm = config;
    options.wlm.overload.enabled = true;
    // One journey per arrival, so none goes untracked: the conservation
    // check reads them.
    options.observability.max_journeys = max_id;
    cluster_ = std::make_unique<wlm::ClusterDispatcher>(
        &sim_, options, [spans](int, wlm::WorkloadManager& manager) {
          DefineStandardWorkloads(&manager, spans);
          manager.set_scheduler(WrapScheduler(
              std::make_unique<wlm::PriorityScheduler>(kClusterMpl), spans));
        });
    for (int s = 0; s < kClusterShards; ++s) {
      cluster_->shard(s).wlm().AddCompletionListener(
          [this, s](const wlm::Request& request) {
            ledger_.OnTerminal(s, request);
          });
    }
    // The plan only holds shard windows inside the cluster, so arming
    // cannot fail; running without it would measure another workload.
    if (!cluster_->ArmFaultPlan(ShardFaults(seed, horizon)).ok()) {
      std::abort();
    }
    return;
  }
  if (workload == Workload::kBiMixed) {
    // Overload protection with a hard queue cap but the CoDel sojourn
    // target out of reach, so dispatch order is always the scheduler's
    // (CoDel's LIFO flip would bypass Scheduler::Order).
    config.overload.enabled = true;
    config.overload.codel.queue_capacity = kBiMixedQueueCapacity;
    config.overload.codel.target_seconds =
        std::numeric_limits<double>::infinity();
  }
  engine_ = std::make_unique<wlm::DatabaseEngine>(&sim_,
                                                  wlm_bench::DefaultEngine());
  monitor_ = std::make_unique<wlm::Monitor>(&sim_, engine_.get(), 1.0);
  monitor_->Start();
  manager_ = std::make_unique<wlm::WorkloadManager>(&sim_, engine_.get(),
                                                    monitor_.get(), config);
  if (workload == Workload::kBiMixed) {
    ConfigureBiMixed(manager_.get(), spans);
  } else {
    DefineStandardWorkloads(manager_.get(), spans);
    manager_->set_scheduler(
        WrapScheduler(std::make_unique<wlm::FifoScheduler>(), spans));
  }
  manager_->AddCompletionListener([this](const wlm::Request& request) {
    ledger_.OnTerminal(0, request);
  });
}

Rig::~Rig() = default;

void Rig::Feed(std::vector<Arrival>* arrivals) {
  arrivals_ = arrivals;
  next_ = 0;
  if (!arrivals_->empty()) {
    sim_.ScheduleAt(arrivals_->front().time, [this] { SubmitNext(); });
  }
}

void Rig::SubmitNext() {
  Arrival& arrival = (*arrivals_)[next_++];
  ledger_.OnSubmitted(arrival.spec.id);
  if (cluster_) {
    ScopedSpan span(spans_, SpanName::kClusterSubmit, arrival.spec.id);
    (void)cluster_->Submit(std::move(arrival.spec));
  } else {
    ScopedSpan span(spans_, SpanName::kCoreSubmit, arrival.spec.id);
    (void)manager_->Submit(std::move(arrival.spec));
  }
  if (next_ < arrivals_->size()) {
    sim_.ScheduleAt((*arrivals_)[next_].time, [this] { SubmitNext(); });
  }
}

int Rig::num_shards() const { return cluster_ ? cluster_->num_shards() : 1; }

wlm::WorkloadManager& Rig::manager(int shard) {
  return cluster_ ? cluster_->shard(shard).wlm() : *manager_;
}

wlm::DatabaseEngine& Rig::engine(int shard) {
  return cluster_ ? cluster_->shard(shard).engine() : *engine_;
}

wlm::Monitor& Rig::monitor(int shard) {
  return cluster_ ? cluster_->shard(shard).monitor() : *monitor_;
}

OutcomeLedger::Conservation Rig::CheckConservation() const {
  return ledger_.Check([this](wlm::QueryId id) {
    if (!cluster_) return false;
    const wlm::Journey* journey = cluster_->journeys().Find(id);
    return journey != nullptr && !journey->lives.empty() &&
           journey->OpenLives() == 0 &&
           journey->lives.back().outcome == "blackholed";
  });
}

bool Rig::Settled() {
  if (arrivals_ == nullptr || next_ < arrivals_->size()) return false;
  for (int s = 0; s < num_shards(); ++s) {
    if (manager(s).queue_depth() != 0 || manager(s).running_count() != 0) {
      return false;
    }
  }
  return CheckConservation().unresolved == 0;
}

}  // namespace perfbench
