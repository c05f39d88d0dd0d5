#ifndef WLM_WORKLOADS_LOGICAL_WORKLOADS_H_
#define WLM_WORKLOADS_LOGICAL_WORKLOADS_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/catalog.h"
#include "engine/types.h"

namespace wlm {

/// Logical analytical query templates in the spirit of the TPC-H query
/// set: each template names the tables it touches and its shape; the
/// generator derives the engine-level demands (CPU, I/O, memory, result
/// rows) from the catalog's table statistics through a CostModel — so a
/// bigger schema really does mean bigger queries.
struct AnalyticalTemplate {
  std::string name;
  /// Tables scanned, largest (probe side) first.
  std::vector<std::string> tables;
  /// Fraction of the probe-side rows surviving the filters, drawn
  /// uniformly in [min, max] per instance.
  double min_selectivity = 0.01;
  double max_selectivity = 0.2;
  /// Rows per group in the final aggregation (drives result rows).
  int64_t rows_per_group = 1000;
};

/// TPC-H-flavoured analytical workload generator: instantiates templates
/// against a catalog.
class AnalyticalWorkload {
 public:
  AnalyticalWorkload(const Catalog* catalog, CostModel cost_model,
                     uint64_t seed, QueryId first_id = 1);

  /// The built-in template set (pricing summary, order-priority join,
  /// shipping-mode wide join, small lookup report).
  static std::vector<AnalyticalTemplate> DefaultTemplates();

  /// Instantiates a random template.
  QuerySpec Next();
  /// Instantiates a specific template.
  QuerySpec Instantiate(const AnalyticalTemplate& tmpl);

 private:
  const Catalog* catalog_;
  CostModel cost_;
  Rng rng_;
  QueryId next_id_;
  std::vector<AnalyticalTemplate> templates_;
};

/// TPC-C-flavoured transaction mix: NewOrder / Payment / OrderStatus /
/// Delivery / StockLevel with the standard 45/43/4/4/4 mix. Lock keys are
/// derived from the warehouse/district rows the transaction touches, so
/// hot-row contention scales down with the warehouse count exactly as in
/// the benchmark.
class TransactionalWorkload {
 public:
  enum class TxnType {
    kNewOrder,
    kPayment,
    kOrderStatus,
    kDelivery,
    kStockLevel,
  };

  TransactionalWorkload(const Catalog* catalog, int warehouses,
                        uint64_t seed, QueryId first_id = 1);

  QuerySpec Next();
  QuerySpec Make(TxnType type);
  static const char* TxnTypeName(TxnType type);

 private:
  /// Stable lock-key encoding for a (table, row) pair.
  LockKey KeyFor(int table_code, int64_t row) const;

  const Catalog* catalog_;
  int warehouses_;
  Rng rng_;
  QueryId next_id_;
};

}  // namespace wlm

#endif  // WLM_WORKLOADS_LOGICAL_WORKLOADS_H_
