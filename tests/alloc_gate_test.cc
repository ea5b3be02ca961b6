// Allocation gate for the simulator's steady state: a PCP-DA run with
// trace, history and audit off allocates nothing per released job or per
// lock decision. Retired jobs are pooled and re-initialised in place,
// per-job state lives in flat vectors that keep their capacity, decisions
// carry a typed rule instead of a string, and arrivals land in a reused
// buffer.
//
// The gate counts global operator new calls; it never times anything, so
// it passes or fails on the inputs alone. Two runs of one task set, at
// horizon H and 2H, differ only by the window [H, 2H): the difference of
// their counts is what that window allocated, and it must stay a small
// constant while the window releases thousands of jobs. Sanitizers
// replace the allocator, so the gate is skipped under them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/pcp_da.h"
#include "sched/simulator.h"
#include "workload/generator.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

#ifndef PCPDA_SANITIZED
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace pcpda {
namespace {

struct CountedRun {
  std::int64_t allocations = 0;
  std::int64_t released = 0;
  std::int64_t lock_decisions = 0;
  std::int64_t blocks = 0;
};

/// One PCP-DA run of `set` over `horizon` ticks, trace, history and audit
/// off, counting the allocations Simulator::Run makes.
CountedRun RunCounted(const TransactionSet& set, Tick horizon) {
  PcpDa protocol;
  SimulatorOptions options;
  options.horizon = horizon;
  options.record_trace = false;
  options.record_history = false;
  Simulator sim(&set, &protocol, options);
  const std::int64_t before = g_allocations.load();
  const SimResult result = sim.Run();
  CountedRun run;
  run.allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  run.released = result.metrics.TotalReleased();
  run.lock_decisions = result.metrics.lock_decisions;
  for (const SpecMetrics& m : result.metrics.per_spec) {
    run.blocks += m.ceiling_blocks + m.conflict_blocks;
  }
  return run;
}

TEST(AllocGateTest, SteadyStateAllocatesNothingPerJob) {
#ifdef PCPDA_SANITIZED
  GTEST_SKIP() << "a sanitizer owns the allocator";
#else
  WorkloadParams params;
  params.num_transactions = 8;
  params.num_items = 10;
  params.total_utilization = 0.7;
  Rng rng(1);
  StatusOr<TransactionSet> set = GenerateWorkload(params, rng);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  constexpr Tick kWarmup = 400000;
  const CountedRun warm = RunCounted(set.value(), kWarmup);
  const CountedRun both = RunCounted(set.value(), 2 * kWarmup);
  const std::int64_t jobs = both.released - warm.released;
  const std::int64_t decisions = both.lock_decisions - warm.lock_decisions;
  const std::int64_t blocks = both.blocks - warm.blocks;
  const std::int64_t allocations = both.allocations - warm.allocations;
  // The window must exercise the paths the gate is about: thousands of
  // releases, lock decisions and block episodes.
  ASSERT_GT(jobs, 10000);
  ASSERT_GT(decisions, 100000);
  ASSERT_GT(blocks, 1000);
  // Warm-up ends well after the last growth of the engine's ring slot
  // maps, whose fresh slots each allocate once when first used. A late
  // capacity doubling may still land in the window; one allocation per
  // thousand jobs would already be a per-job cost.
  EXPECT_LE(allocations, 16)
      << "the window [" << kWarmup << ", " << 2 * kWarmup << ") released "
      << jobs << " jobs, decided " << decisions << " lock requests ("
      << blocks << " block episodes) and made " << allocations
      << " allocations";
#endif
}

}  // namespace
}  // namespace pcpda
