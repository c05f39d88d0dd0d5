#ifndef WLM_FAULTS_FAULT_PLAN_H_
#define WLM_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wlm {

/// The disturbance classes the injector can script against a run. Each
/// targets one surface the workload-management controls defend:
enum class FaultKind {
  /// Disk slows to `magnitude` (a rate factor in (0, 1)) of rated IOPS.
  kDiskDegrade,
  /// Disk stalls completely: rate factor 0 for the window.
  kIoStall,
  /// `magnitude` MB of memory vanish from the governor's budget;
  /// already-granted reservations are honored, new grants shrink.
  kMemoryPressure,
  /// `magnitude` CPU cores go offline (rounded, min 1).
  kCpuLoss,
  /// A storm transaction grabs exclusive locks on the `hot_keys`
  /// hottest keys (the Zipf generators' keys 0..hot_keys-1) and holds
  /// them for the whole window — queueing every conflicting writer.
  kLockStorm,
  /// Every `period` seconds, `magnitude` (min 1) running queries are
  /// spontaneously aborted, victims drawn from the injector's seeded RNG.
  kQueryAborts,
  /// Arrival-rate surge: the registered surge handler is told to scale
  /// arrivals by `magnitude` for the window (the injector itself does
  /// not generate load).
  kArrivalSurge,
  /// Cluster-level: shard `shard`'s process dies at `start` and comes
  /// back at `end()`. Unannounced — the dispatcher only learns of the
  /// death through its failure detector, and queries routed there in
  /// the meantime are black-holed. Armed via
  /// ClusterDispatcher::ArmFaultPlan, not FaultInjector.
  kShardCrash,
  /// Cluster-level: a *coordinated* restart of shard `shard` — the
  /// dispatcher is told at `start` (no detection latency), drains the
  /// shard immediately and re-admits it through the warm-up ramp at
  /// `end()`. Armed via ClusterDispatcher::ArmFaultPlan.
  kShardRestart,
};

const char* FaultKindToString(FaultKind kind);
/// Kinds FaultInjector can arm against a single engine (the prefix of
/// FaultKind before the cluster-level shard kinds).
inline constexpr int kEngineFaultKindCount = 7;

/// True for the cluster-level kinds only ClusterDispatcher::ArmFaultPlan
/// understands (FaultInjector::Arm rejects them).
bool IsShardFaultKind(FaultKind kind);

/// One scripted fault window on the simulation clock.
struct FaultEvent {
  FaultKind kind = FaultKind::kDiskDegrade;
  /// Window start, sim seconds.
  double start = 0.0;
  /// Window length, sim seconds (must be > 0).
  double duration = 1.0;
  /// Kind-specific intensity; see FaultKind.
  double magnitude = 0.0;
  /// kQueryAborts: seconds between strikes.
  double period = 0.5;
  /// kLockStorm: number of hottest keys seized.
  int hot_keys = 4;
  /// kShardCrash / kShardRestart: the shard index the window targets.
  int shard = 0;

  double end() const { return start + duration; }
};

/// A seeded, scriptable fault timeline. The plan plus the seed fully
/// determine every injected disturbance — including RNG-driven victim
/// selection — so a run under a given (workload seed, FaultPlan) pair is
/// reproducible bit-for-bit.
struct FaultPlan {
  /// Seeds the injector's victim-selection RNG.
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  /// Fluent append; returns *this for chaining.
  FaultPlan& Add(FaultEvent event);
  /// Latest window end, 0 for an empty plan.
  double Horizon() const;
  /// Human-readable timeline, one event per line.
  std::string ToString() const;

  /// Deterministically generates `num_events` windows with kinds,
  /// placements and intensities drawn from `seed`, all ending within
  /// `horizon`. Property tests fuzz resilience invariants with this.
  static FaultPlan Random(uint64_t seed, double horizon, int num_events);

  /// The metastable-failure recipe: an arrival surge of `surge_factor`
  /// over [start, start+duration) overlapped by periodic query aborts of
  /// `abort_magnitude` victims every `abort_period` seconds. Without
  /// retry budgets and shedding, the abort-driven retries plus the surge
  /// backlog keep goodput collapsed after both windows close.
  static FaultPlan MetastableStorm(uint64_t seed, double start,
                                   double duration, double surge_factor,
                                   double abort_magnitude,
                                   double abort_period);

  /// A rolling restart: each of `num_shards` shards crashes for
  /// `down_seconds`, staggered `gap_seconds` apart starting at `start`
  /// (shard 0 first). `announced` selects kShardRestart windows
  /// (coordinated drain) over kShardCrash windows (the dispatcher must
  /// detect each death itself). The chaos suite's crash scenario.
  static FaultPlan RollingRestart(uint64_t seed, int num_shards, double start,
                                  double down_seconds, double gap_seconds,
                                  bool announced = false);
};

}  // namespace wlm

#endif  // WLM_FAULTS_FAULT_PLAN_H_
