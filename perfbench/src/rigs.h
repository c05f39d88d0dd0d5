#ifndef PERFBENCH_RIGS_H_
#define PERFBENCH_RIGS_H_

// The three benchmark workloads: their seeded inputs, the system each
// one drives, and the outcome ledger every terminal event is folded into.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/workload_manager.h"
#include "engine/engine.h"
#include "engine/monitor.h"
#include "sim/simulation.h"
#include "spans.h"

namespace perfbench {

enum class Workload { kOltpPoint, kBiMixed, kCluster4 };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);
/// Simulated seconds of arrivals per second of --seconds, chosen so that
/// the timed phase lasts about --seconds of wall time on the 4-vCPU x86 VM
/// the benchmark was defined on.
double SimSecondsPerRunSecond(Workload workload);

/// One prepared arrival: its simulated time and the spec to submit.
struct Arrival {
  double time = 0.0;
  wlm::QuerySpec spec;
};

/// Open-loop Poisson arrivals over [0, horizon) for `workload`, drawn
/// from `seed` alone, sorted by time. Query ids are 1..size().
std::vector<Arrival> GenerateArrivals(Workload workload, uint64_t seed,
                                      double horizon);

/// Fixed-size record per query id plus an order-sensitive digest of
/// every terminal event (shard, id, state, bits of the finish time).
class OutcomeLedger {
 public:
  explicit OutcomeLedger(size_t max_id) : records_(max_id + 1, 0) {}

  void OnSubmitted(wlm::QueryId id);
  void OnTerminal(int shard, const wlm::Request& request);

  uint64_t digest() const { return digest_; }
  int64_t submitted() const { return submitted_; }
  /// Terminal events seen, counting every life of a cluster query.
  int64_t terminal_events() const { return terminal_events_; }
  /// Submitted queries that reached at least one terminal event.
  int64_t resolved() const { return resolved_; }

  struct Conservation {
    int64_t unresolved = 0;       // submitted, no terminal event, not lost
    int64_t lost = 0;             // no terminal event, `is_lost` says lost
    int64_t multi_terminal = 0;   // more than one terminal event
    int64_t multi_completed = 0;  // completed more than once
    int64_t unknown = 0;          // terminal for an id never submitted
  };
  /// Counts every submitted id; a submitted id with no terminal event is
  /// `lost` when `is_lost(id)` holds and `unresolved` otherwise.
  Conservation Check(const std::function<bool(wlm::QueryId)>& is_lost) const;

 private:
  // Bit 0: submitted; bits 1-2: terminal events (saturating at 3);
  // bits 3-4: completions (saturating at 3).
  std::vector<uint8_t> records_;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  int64_t submitted_ = 0;
  int64_t terminal_events_ = 0;
  int64_t resolved_ = 0;
  int64_t unknown_ = 0;
};

/// The simulated system one workload drives: a single node (engine,
/// monitor, WorkloadManager) or a ClusterDispatcher over four shards.
/// `spans` non-null installs the tracing decorators.
class Rig {
 public:
  Rig(Workload workload, uint64_t seed, double horizon, size_t max_id,
      bool telemetry, SpanRecorder* spans);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  wlm::Simulation& sim() { return sim_; }
  /// Submits each arrival at its simulated time, in order. `arrivals`
  /// must outlive the run; each spec is moved out when submitted.
  void Feed(std::vector<Arrival>* arrivals);

  int num_shards() const;
  wlm::WorkloadManager& manager(int shard);
  wlm::DatabaseEngine& engine(int shard);
  wlm::Monitor& monitor(int shard);
  /// Null on single-node workloads.
  wlm::ClusterDispatcher* cluster() { return cluster_.get(); }
  OutcomeLedger& ledger() { return ledger_; }

  /// The ledger's conservation counts. A cluster query with no terminal
  /// event counts as lost, not unresolved, only when its journey has no
  /// open life and its last life ended black-holed on a crashed shard.
  OutcomeLedger::Conservation CheckConservation() const;

  /// True once every arrival is submitted, every shard's queue and engine
  /// are empty and no submitted query is unresolved.
  bool Settled();

 private:
  void SubmitNext();

  SpanRecorder* spans_;
  OutcomeLedger ledger_;
  wlm::Simulation sim_;
  // Single node.
  std::unique_ptr<wlm::DatabaseEngine> engine_;
  std::unique_ptr<wlm::Monitor> monitor_;
  std::unique_ptr<wlm::WorkloadManager> manager_;
  // Cluster.
  std::unique_ptr<wlm::ClusterDispatcher> cluster_;
  std::vector<Arrival>* arrivals_ = nullptr;
  size_t next_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RIGS_H_
