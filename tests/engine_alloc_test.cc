// Allocation guard for the engine tick: a steady population of running
// queries must cost the same number of heap allocations per tick whatever
// its size. This binary replaces the global operator new with a counting
// one, so it is built as its own test executable.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "engine/engine.h"
#include "sim/simulation.h"

namespace {

size_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wlm {
namespace {

constexpr int kTicks = 100;

/// A lock-free query with ~1e9 CPU-seconds and I/O ops: it never finishes
/// within the test, so the population stays fixed.
QuerySpec EndlessQuery(QueryId id) {
  QuerySpec spec;
  spec.id = id;
  spec.cpu_seconds = 1e9;
  spec.io_ops = 1e9;
  spec.memory_mb = 1.0;
  return spec;
}

/// Heap allocations over kTicks engine ticks at a steady `population`,
/// after kTicks of warm-up. With `grouped`, every other query is tagged
/// into one group-share pool.
size_t AllocationsPerTicks(int population, bool grouped) {
  Simulation sim;
  EngineConfig config;
  DatabaseEngine engine(&sim, config);
  if (grouped) {
    EXPECT_TRUE(engine.SetGroupShares("pool", {2.0, 3.0}).ok());
  }
  for (int i = 0; i < population; ++i) {
    ExecutionContext ctx;
    ctx.tag = grouped && i % 2 == 0 ? "pool" : "solo";
    EXPECT_TRUE(engine
                    .Dispatch(EndlessQuery(static_cast<QueryId>(i + 1)),
                              std::move(ctx))
                    .ok());
  }
  const double window = kTicks * config.tick_seconds;
  sim.RunFor(window);
  const size_t before = g_allocations;
  sim.RunFor(window);
  const size_t allocations = g_allocations - before;
  EXPECT_EQ(engine.running_count(), static_cast<size_t>(population));
  return allocations;
}

TEST(EngineAllocTest, TickAllocationsDoNotGrowWithActiveQueries) {
  for (bool grouped : {false, true}) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    const size_t at8 = AllocationsPerTicks(8, grouped);
    const size_t at64 = AllocationsPerTicks(64, grouped);
    const size_t at256 = AllocationsPerTicks(256, grouped);
    std::cout << (grouped ? "grouped" : "ungrouped") << " allocations per "
              << kTicks << " ticks at 8/64/256 queries: " << at8 << " / "
              << at64 << " / " << at256 << "\n";
    EXPECT_EQ(at8, at64);
    EXPECT_EQ(at8, at256);
    // What is left is the simulation's own event bookkeeping (one
    // reschedule per tick plus the deadlock detector), not the tick.
    EXPECT_LT(at8, static_cast<size_t>(2 * kTicks));
  }
}

}  // namespace
}  // namespace wlm
