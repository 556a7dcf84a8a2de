// AssemblyCache: assemble-once semantics under concurrency, image
// identity, and zero re-assembly across the config points of a sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/assembly_cache.h"
#include "runtime/parallel_runner.h"
#include "runtime/sweep_campaign.h"
#include "workloads/workloads.h"

namespace paradet::runtime {
namespace {

workloads::Workload kernel(const char* name, double scale) {
  workloads::Workload workload;
  EXPECT_TRUE(workloads::make_workload(name, workloads::Scale{scale},
                                       workload));
  return workload;
}

TEST(AssemblyCache, ConcurrentLookupsAssembleEachWorkloadExactlyOnce) {
  AssemblyCache cache;
  const std::vector<workloads::Workload> suite = {
      kernel("randacc", 0.03), kernel("freqmine", 0.03),
      kernel("stream", 0.03)};

  constexpr unsigned kThreads = 8;
  constexpr unsigned kLookupsPerThread = 16;
  // All threads spin on the gate so the lookups genuinely race.
  std::atomic<bool> gate{false};
  std::vector<std::vector<AssemblyCache::Image>> seen(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!gate.load(std::memory_order_acquire)) {}
      for (unsigned i = 0; i < kLookupsPerThread; ++i) {
        seen[t].push_back(cache.get(suite[(t + i) % suite.size()]));
      }
    });
  }
  gate.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  // Exactly one assembly per distinct workload, however the races fell.
  EXPECT_EQ(cache.assemblies(), suite.size());

  // Every lookup of a workload returned a pointer to the same image.
  std::set<const isa::Assembled*> distinct;
  for (const auto& images : seen) {
    for (const auto& image : images) distinct.insert(image.get());
  }
  EXPECT_EQ(distinct.size(), suite.size());

  // And a later lookup still hits the same objects.
  for (const auto& workload : suite) {
    EXPECT_TRUE(distinct.count(cache.get(workload).get()));
  }
  EXPECT_EQ(cache.assemblies(), suite.size());
}

TEST(AssemblyCache, DistinctSourcesGetDistinctImages) {
  AssemblyCache cache;
  // Same kernel, different scale: different source text, different image.
  const auto small = cache.get(kernel("randacc", 0.03));
  const auto large = cache.get(kernel("randacc", 0.06));
  EXPECT_NE(small.get(), large.get());
  EXPECT_EQ(cache.assemblies(), 2u);

  // An equal-source Workload built independently shares the image.
  EXPECT_EQ(cache.get(kernel("randacc", 0.03)).get(), small.get());
  EXPECT_EQ(cache.assemblies(), 2u);
}

TEST(AssemblyCache, SameLengthDifferentSourcesStayIsolated) {
  // The cache keys by (content hash, length): equal-length sources with
  // different bytes must hash apart — and even a colliding key would be
  // disambiguated by the stored source text.
  AssemblyCache cache;
  workloads::Workload a;
  a.name = "a";
  a.source = "_start:\n  addi x5, x0, 1\n  halt\n";
  workloads::Workload b = a;
  b.source = "_start:\n  addi x5, x0, 2\n  halt\n";
  ASSERT_EQ(a.source.size(), b.source.size());

  const auto image_a = cache.get(a);
  const auto image_b = cache.get(b);
  EXPECT_NE(image_a.get(), image_b.get());
  EXPECT_EQ(cache.assemblies(), 2u);
  EXPECT_EQ(cache.get(a).get(), image_a.get());
  EXPECT_EQ(cache.get(b).get(), image_b.get());
  EXPECT_EQ(cache.assemblies(), 2u);
}

TEST(AssemblyCache, SweepOverThreeConfigPointsDoesZeroReassembly) {
  // A 3-point sweep over 2 workloads: the sweep layer must fetch each
  // image once from the process-wide cache and share it across every
  // config point, so the cache grows by exactly |workloads| — and by zero
  // when the same sweep runs again. The scales are unique to this test so
  // the process-wide counter deltas are exact.
  const std::vector<workloads::Workload> suite = {
      kernel("randacc", 0.0153), kernel("freqmine", 0.0153)};

  std::mutex mutex;
  std::set<const isa::Assembled*> images_seen;
  const auto record_cells = [&](std::size_t, std::size_t,
                                const AssemblyCache::Image& image, std::uint64_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    images_seen.insert(image.get());
    return sim::RunResult{};  // image identity is the point, not timing.
  };

  AssemblyCache& cache = AssemblyCache::instance();
  const std::uint64_t before = cache.assemblies();
  const SweepCampaign sweep(3, suite, /*seed=*/0x5EED);
  sweep.run(ParallelRunner(8), record_cells);
  EXPECT_EQ(cache.assemblies() - before, suite.size());
  // 6 cells, but only one image object per workload.
  EXPECT_EQ(images_seen.size(), suite.size());

  // The identical sweep again: every image is already cached.
  sweep.run(ParallelRunner(8), record_cells);
  EXPECT_EQ(cache.assemblies() - before, suite.size());
  EXPECT_EQ(images_seen.size(), suite.size());
}

}  // namespace
}  // namespace paradet::runtime
