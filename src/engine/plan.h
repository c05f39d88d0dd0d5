#ifndef WLM_ENGINE_PLAN_H_
#define WLM_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/types.h"

namespace wlm {

/// Physical operator types in execution plans. The executor runs operators
/// sequentially in pipeline order; suspend/resume, progress estimation and
/// query restructuring all act at operator granularity.
enum class OperatorType {
  kTableScan,
  kIndexScan,
  kFilter,
  kHashJoin,
  kSort,
  kAggregate,
  kInsert,
  kUpdate,
  kUtilityOp,  // backup/reorg/statistics work
};

/// One operator's work, state-size, and checkpoint behaviour.
struct PlanOperator {
  OperatorType type = OperatorType::kTableScan;
  /// CPU service demand of this operator, CPU-seconds.
  double cpu_seconds = 0.0;
  /// I/O demand, operations.
  double io_ops = 0.0;
  /// Peak in-memory state (hash table, sort runs), MB. Grows linearly with
  /// operator progress; DumpState suspension writes the *current* state.
  double max_state_mb = 0.0;
  /// Asynchronous checkpoint granularity: a checkpoint exists at every
  /// multiple of this progress fraction (Chandramouli et al.'s
  /// per-operator asynchronous checkpointing). 1.0 = only at op start.
  double checkpoint_fraction = 1.0;
  /// Estimated output rows (optimizer view).
  int64_t est_rows = 0;
};

/// A physical plan: operators in execution order plus the optimizer's
/// pre-execution estimates for the whole query.
struct Plan {
  QueryId query_id = 0;
  std::vector<PlanOperator> operators;

  /// Optimizer estimates (subject to estimation error).
  double est_cpu_seconds = 0.0;
  double est_io_ops = 0.0;
  double est_memory_mb = 0.0;
  int64_t est_rows = 0;
  /// Combined abstract cost unit (DB2-style "timerons"):
  /// weighted CPU + I/O.
  double est_timerons = 0.0;
  /// Estimated elapsed seconds if the query ran alone on the configured
  /// engine (the query-governor-style execution-time estimate).
  double est_elapsed_seconds = 0.0;

  double TotalCpu() const;
  double TotalIo() const;
  /// Total abstract work units (for progress fractions): cpu-seconds plus
  /// io normalized by a nominal device rate.
  double TotalWork(double io_ops_per_second) const;
  /// True elapsed seconds if this plan ran alone (sequential pipeline,
  /// cpu/io overlapped within an operator). The velocity metric's
  /// "expected execution time in steady state".
  double StandaloneSeconds(int dop, double io_ops_per_second) const;
};

}  // namespace wlm

#endif  // WLM_ENGINE_PLAN_H_
