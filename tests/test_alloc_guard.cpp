// Allocation guard for the control plane: a small jacobi job must average
// at most two heap allocations per processed event while it runs. The app
// message path (payload arenas, in-flight records, the engine's inline
// handlers, the receive inbox) allocates nothing in steady state, so a
// regression that puts a std::function, a per-message vector or a map node
// back on that path shows up here as a count, long before it shows up in
// wall time.
//
// Its own binary, because it replaces the global operator new/delete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace acr {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// ROADMAP item 2's target for the control plane.
constexpr double kMaxAllocationsPerEvent = 2.0;

TEST(AllocationGuard, SmallJacobiJobAllocatesAtMostTwicePerEvent) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer runtimes allocate on their own behalf (shadow "
                    "and bookkeeping), so the count would not measure the "
                    "program";
  // ctl_scale's shape at 64 nodes per replica: 4^3 blocks, 4 tasks per
  // node, strong scheme, partner buddies, clean network, no faults.
  apps::Jacobi3DConfig app;
  app.tasks_x = app.tasks_y = 2;
  app.tasks_z = 64;
  app.block_x = app.block_y = app.block_z = 4;
  app.slots_per_node = 4;
  app.iterations = 12;
  app.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = 4;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(app.factory());
  runtime.setup();

  g_allocations = 0;
  g_counting = true;
  RunSummary s = runtime.run(600.0);
  g_counting = false;

  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.checkpoints, 1u);
  auto events = static_cast<double>(runtime.engine().events_processed());
  ASSERT_GT(events, 0.0);
  double per_event = static_cast<double>(g_allocations.load()) / events;
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kMaxAllocationsPerEvent)
      << g_allocations.load() << " allocations over " << events
      << " events";
}

}  // namespace
}  // namespace acr
