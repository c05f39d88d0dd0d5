// S9 — ablation: per-query weights vs workload-level (group) fair sharing.
//
// Policy-driven resource allocation [4][78] and resource-pool reservations
// [50] are *workload-level* statements ("oltp gets 80% of the CPU"). This
// ablation shows why encoding them as per-query weights is fragile: the
// workload's aggregate share then scales with however many of its queries
// happen to be runnable (population drift, lock-blocked members), while
// the engine's two-level group sharing pins the aggregate share at the
// workload level. We sweep the number of interfering BI queries and report
// the protected OLTP stream's p95 under three encodings of "oltp:bi =
// 80:20":
//   (a) per-query weights sized for ONE bi query (naive),
//   (b) per-query weights re-divided by the live count each second
//       (population-tracking, still per-query),
//   (c) engine group shares (two-level).

#include <cstdlib>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "core/interfaces.h"

namespace {

using namespace wlm;
using wlm_bench::BenchRig;

// Mode (b): per-query weights re-divided by the live member count.
class PerQueryRedivider : public ExecutionController {
 public:
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override {
    (void)indicators;
    int oltp = std::max(1, manager.RunningInWorkload("oltp"));
    int bi = std::max(1, manager.RunningInWorkload("bi"));
    manager.SetWorkloadShares("oltp", {8.0 / oltp, 8.0 / oltp});
    manager.SetWorkloadShares("bi", {2.0 / bi, 2.0 / bi});
  }
  TechniqueInfo info() const override {
    TechniqueInfo info;
    info.name = "per-query redivider (ablation)";
    info.technique_class = TechniqueClass::kExecutionControl;
    info.subclass = TechniqueSubclass::kReprioritization;
    return info;
  }
};

double Run(int bi_queries, int mode) {  // mode 0/1/2 = (a)/(b)/(c)
  EngineConfig config = wlm_bench::DefaultEngine();
  config.num_cpus = 2;
  config.io_ops_per_second = 800.0;
  config.memory_mb = 4096.0;
  BenchRig rig(config);
  wlm_bench::DefineStandardWorkloads(&rig.wlm);

  switch (mode) {
    case 0:
      // Sized for one bi query: weights 8 vs 2.
      rig.wlm.SetWorkloadShares("oltp", {8.0, 8.0});
      rig.wlm.SetWorkloadShares("bi", {2.0, 2.0});
      break;
    case 1:
      rig.wlm.AddExecutionController(std::make_unique<PerQueryRedivider>());
      break;
    case 2:
      if (!rig.engine.SetGroupShares("oltp", {8.0, 8.0}).ok() ||
          !rig.engine.SetGroupShares("bi", {2.0, 2.0}).ok()) {
        std::cerr << "group shares rejected\n";
        std::exit(1);
      }
      break;
  }

  WorkloadGenerator gen(777);
  BiWorkloadConfig bi_shape;
  bi_shape.cpu_mu = 3.0;
  bi_shape.io_per_cpu = 900.0;
  bi_shape.memory_mb_per_cpu_second = 4.0;
  for (int i = 0; i < bi_queries; ++i) {
    (void)rig.wlm.Submit(gen.NextBi(bi_shape));
  }
  OltpWorkloadConfig oltp_shape;
  oltp_shape.locks_per_txn = 0;
  oltp_shape.mean_io_ops = 20.0;
  Rng arrivals(777);
  OpenLoopDriver driver(
      &rig.sim, &arrivals, 20.0, [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(60.0);
  rig.sim.RunUntil(70.0);
  return rig.monitor.tag_stats("oltp").response_times.Percentile(95);
}

}  // namespace

int main() {
  using namespace wlm;
  PrintBanner(std::cout,
              "S9 — ablation: encoding oltp:bi = 80:20 — per-query "
              "weights vs two-level group shares (OLTP p95, seconds)");
  TablePrinter table({"BI interferers", "(a) per-query, sized for 1",
                      "(b) per-query, re-divided", "(c) group shares"});
  for (int bi : {1, 2, 4, 8, 16}) {
    table.AddRow({TablePrinter::Int(bi), TablePrinter::Num(Run(bi, 0), 3),
                  TablePrinter::Num(Run(bi, 1), 3),
                  TablePrinter::Num(Run(bi, 2), 3)});
  }
  table.Print(std::cout);
  std::cout
      << "\nShape check: with per-query weights the OLTP aggregate share "
         "erodes as the BI\npopulation grows (each interferer brings its "
         "own weight); re-dividing per sample\nhelps but lags population "
         "changes; group shares hold the 80:20 split at the\nworkload "
         "level regardless of population — the reason the engine "
         "implements\ntwo-level fair sharing.\n";
  return 0;
}
