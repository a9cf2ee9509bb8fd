// GraphCache acceptance — the interning lifecycle of the graph layer
// (DESIGN.md §7).
//
// The contract: a sweep of S scenarios over T distinct topologies
// constructs each topology exactly once (builds == T, hits == S - T),
// shares one immutable instance across every worker thread, and the
// pipeline's emitted bytes stay identical for every thread count — the
// interning must be observationally invisible.
#include "runner/graph_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/pipeline.h"
#include "runner/registry.h"
#include "runner/sink.h"

namespace asyncrv {
namespace {

TEST(GraphCache, InternsByIdAndCountsExactly) {
  runner::GraphCache cache;
  const GraphHandle a = cache.resolve("ring:6");
  const GraphHandle b = cache.resolve("ring:6");
  const GraphHandle c = cache.resolve("ring:6@7");
  EXPECT_EQ(a.get(), b.get()) << "same id must intern to the same instance";
  EXPECT_NE(a.get(), c.get()) << "the @seed suffix names a different instance";
  EXPECT_EQ(a->size(), 6u);

  const runner::GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.resident_graphs, 2u);
  EXPECT_EQ(s.resident_bytes, a->memory_bytes() + c->memory_bytes());
}

TEST(GraphCache, ErrorsAreNotInterned) {
  runner::GraphCache cache;
  EXPECT_THROW(cache.resolve("moebius:6"), std::logic_error);
  EXPECT_THROW(cache.resolve("moebius:6"), std::logic_error);  // retried
  const runner::GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.builds, 0u);
  EXPECT_EQ(s.resident_graphs, 0u);
  // A good id still resolves after failures.
  EXPECT_EQ(cache.resolve("ring:4")->size(), 4u);
}

TEST(GraphCache, EvictAllDropsInstancesButHandlesSurvive) {
  runner::GraphCache cache;
  const GraphHandle before = cache.resolve("petersen");
  EXPECT_EQ(cache.evict_until(0), 1u);
  EXPECT_EQ(cache.stats().resident_graphs, 0u);
  EXPECT_EQ(before->size(), 10u) << "outstanding handles stay valid";
  const GraphHandle after = cache.resolve("petersen");
  EXPECT_NE(before.get(), after.get()) << "eviction kept the old instance";
  EXPECT_EQ(cache.stats().builds, 2u) << "the next resolve rebuilds";
}

TEST(GraphCache, ConcurrentResolveBuildsExactlyOnce) {
  // Many threads race one id; the entry lock must elect exactly one
  // builder and hand everyone the identical instance.
  runner::GraphCache cache;
  constexpr int kThreads = 8;
  std::vector<GraphHandle> handles(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) {
      }  // start roughly together
      handles[static_cast<std::size_t>(t)] = cache.resolve("grid:40x50");
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[0].get(), handles[static_cast<std::size_t>(t)].get());
  }
  const runner::GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

/// The multi-thousand-node sweep of the acceptance criteria: 3 large
/// topologies x 8 scenarios each, run at several thread counts. Small
/// budgets keep each cell quick — the cells end budget-exhausted, which is
/// exactly as deterministic as a meeting.
std::vector<runner::ExperimentSpec> large_sweep() {
  const std::vector<std::string> graphs = {"grid:64x64", "torus:40x50",
                                           "ring:5000"};
  const std::vector<std::string> adversaries = {"fair", "random50", "stall-a",
                                                "random85"};
  std::vector<runner::ExperimentSpec> specs;
  for (const std::string& g : graphs) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      runner::RendezvousSpec rv;
      rv.graph = g;
      rv.adversary = adversaries[i % adversaries.size()];
      rv.labels = {9, 14};
      rv.budget = 3'000;
      rv.seed = 0xACCE97 + i;
      specs.push_back({.name = "", .scenario = std::move(rv)});
    }
  }
  return specs;
}

TEST(GraphCache, LargeSweepOneConstructionPerTopologyAnyThreadCount) {
  std::string golden_jsonl;
  for (const int threads : {1, 2, 4}) {
    runner::GraphCache graphs;
    std::ostringstream jsonl;
    runner::JsonlSink sink(jsonl);
    runner::PipelineOptions options;
    options.threads = threads;
    options.sinks = {&sink};
    options.graph_cache = &graphs;

    const runner::PipelineReport report =
        runner::ExperimentPipeline(options).run(large_sweep());

    ASSERT_EQ(report.totals.errored, 0u) << "threads=" << threads;
    EXPECT_EQ(report.totals.scenarios, 24u);
    EXPECT_EQ(report.executed, 24u);

    // Exactly one construction per distinct topology, whatever the thread
    // count; every other scenario resolves an interned handle.
    const runner::GraphCache::Stats gs = report.graph_stats;
    EXPECT_EQ(gs.builds, 3u) << "threads=" << threads;
    EXPECT_EQ(gs.lookups, 24u) << "threads=" << threads;
    EXPECT_EQ(gs.hits, 24u - 3u)
        << "threads=" << threads
        << " (hit-rate must equal scenarios - distinct topologies)";
    EXPECT_EQ(gs.resident_graphs, 3u);
    EXPECT_GT(gs.resident_bytes, 0u);

    // Bit-identical machine output across thread counts.
    if (golden_jsonl.empty()) {
      golden_jsonl = jsonl.str();
      EXPECT_FALSE(golden_jsonl.empty());
    } else {
      EXPECT_EQ(jsonl.str(), golden_jsonl) << "threads=" << threads;
    }
  }
}

TEST(GraphCache, EvictDropsLruFirstAndKeepsAccountingExact) {
  runner::GraphCache cache;
  const GraphHandle a = cache.resolve("ring:6");     // LRU order: a
  const GraphHandle b = cache.resolve("grid:4x4");   // a, b
  const GraphHandle c = cache.resolve("path:9");     // a, b, c
  (void)cache.resolve("ring:6");                     // touch: b, c, a
  const std::uint64_t all_bytes =
      a->memory_bytes() + b->memory_bytes() + c->memory_bytes();
  ASSERT_EQ(cache.stats().resident_bytes, all_bytes);
  EXPECT_EQ(cache.stats().resident_bytes_hwm, all_bytes);

  // Evict down just below full residency: exactly the least recently used
  // instance (grid:4x4 — ring:6 was touched after it) goes.
  EXPECT_EQ(cache.evict_until(all_bytes - 1), 1u);
  runner::GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_graphs, 2u);
  EXPECT_EQ(s.resident_bytes, all_bytes - b->memory_bytes());
  EXPECT_EQ(s.resident_bytes_hwm, all_bytes) << "the high-water mark stays";

  // The outstanding handle is untouched; the next resolve rebuilds.
  EXPECT_EQ(b->size(), 16u);
  const GraphHandle b2 = cache.resolve("grid:4x4");
  EXPECT_NE(b.get(), b2.get()) << "evicted id must rebuild a fresh instance";
  EXPECT_EQ(cache.stats().builds, 4u);

  // Targeted eviction; unknown ids refuse.
  EXPECT_TRUE(cache.evict("path:9"));
  EXPECT_FALSE(cache.evict("path:9")) << "already gone";
  EXPECT_FALSE(cache.evict("hypercube:3")) << "never resolved";
  EXPECT_EQ(cache.evict_until(0), 2u) << "0 evicts everything resident";
  s = cache.stats();
  EXPECT_EQ(s.resident_graphs, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.evictions, 4u);
}

TEST(GraphCache, EvictedIdRebuildsExactlyOnceUnderConcurrentLookups) {
  runner::GraphCache cache;
  const std::string id = "grid:32x32";
  (void)cache.resolve(id);
  ASSERT_EQ(cache.stats().builds, 1u);

  // Hammer resolve from many threads while the main thread repeatedly
  // evicts: every eviction must be followed by exactly one rebuild, never
  // a duplicated or torn construction, and every handle must be servable.
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> resolves{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const GraphHandle g = cache.resolve(id);
        EXPECT_EQ(g->size(), 1024u);
        resolves.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::uint64_t evicted = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (cache.evict(id)) ++evicted;
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  const runner::GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, evicted);
  // Exactly-once rebuild: one initial build plus at most one per eviction
  // (an eviction with no later lookup rebuilds lazily, i.e. not at all).
  EXPECT_LE(s.builds, 1u + evicted);
  // +1: the warm-up resolve before the threads started.
  EXPECT_EQ(s.lookups, resolves.load() + 1) << "every resolve is counted";
  EXPECT_EQ(s.hits + s.builds, s.lookups);
  EXPECT_LE(s.resident_graphs, 1u);
}

TEST(GraphCache, PipelineFallsBackToRunLocalCache) {
  // No cache passed in options: the pipeline still interns within the
  // batch and reports the run-local counters.
  std::vector<runner::ExperimentSpec> specs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    runner::RendezvousSpec rv;
    rv.graph = "ring:12";
    rv.adversary = "fair";
    rv.labels = {5, 12};
    rv.budget = 100'000;
    rv.seed = i;
    specs.push_back({.name = "", .scenario = std::move(rv)});
  }
  runner::PipelineOptions options;
  options.threads = 2;
  const runner::PipelineReport report =
      runner::ExperimentPipeline(options).run(std::move(specs));
  EXPECT_EQ(report.totals.errored, 0u);
  EXPECT_EQ(report.graph_stats.builds, 1u);
  EXPECT_EQ(report.graph_stats.hits, 5u);
}

}  // namespace
}  // namespace asyncrv
