// Sharded sweep execution (DESIGN.md §10): the deterministic fingerprint
// partition, the fork-based multi-process driver over one shared cache
// directory, merge byte-identity with a single-process run at any shard
// count, and the checkpointed-resumption contract — a SIGKILLed worker's
// committed cells never re-execute.
#include "runner/shard.h"

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "runner/sink.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// JSONL bytes of one single-process batched run of `specs` against the
/// cache directory (the merge path of `rv_cli sweep scale`).
std::string merged_jsonl(const std::vector<runner::ExperimentSpec>& specs,
                         const std::string& cache_dir,
                         std::uint64_t* executed = nullptr) {
  const runner::SweepCache cache(cache_dir);
  std::ostringstream os;
  runner::JsonlSink sink(os);
  runner::PipelineOptions popts;
  popts.threads = 1;
  popts.batch = true;
  popts.cache = &cache;
  popts.sinks = {&sink};
  const auto report = runner::ExperimentPipeline(popts).run(specs);
  if (executed != nullptr) *executed = report.executed;
  return os.str();
}

std::uint64_t counter(const obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

const runner::ShardWorkerResult& worker_for_shard(const runner::ShardRun& run,
                                                  int shard) {
  for (const auto& w : run.workers) {
    if (w.shard == shard) return w;
  }
  ADD_FAILURE() << "no worker for shard " << shard;
  static runner::ShardWorkerResult none;
  return none;
}

TEST(ShardPlan, PartitionIsDisjointCoveringAndDeterministic) {
  const auto specs = runner::scale_grid(500);
  for (const int k : {1, 2, 4, 7}) {
    const auto plan = runner::plan_shards(specs, k);
    ASSERT_EQ(plan.size(), static_cast<std::size_t>(k));
    std::set<std::size_t> seen;
    for (int s = 0; s < k; ++s) {
      EXPECT_TRUE(std::is_sorted(plan[s].begin(), plan[s].end()));
      for (const std::size_t i : plan[s]) {
        EXPECT_TRUE(seen.insert(i).second);  // disjoint
        EXPECT_EQ(runner::shard_of(specs[i].fingerprint(), k), s);
      }
    }
    EXPECT_EQ(seen.size(), specs.size());  // covering
    EXPECT_EQ(plan, runner::plan_shards(specs, k));  // deterministic
  }
  // Every shard of a non-trivial split is non-empty at this grid size.
  const auto plan = runner::plan_shards(specs, 4);
  for (const auto& shard : plan) EXPECT_FALSE(shard.empty());
}

TEST(Shard, InProcessWorkerExecutesColdAndServesWarm) {
  const std::string dir = fresh_dir("shard_inproc");
  const auto specs = runner::scale_grid(120);
  const auto plan = runner::plan_shards(specs, 3);
  runner::ShardWorkerOptions wopts;
  wopts.cache_dir = dir;
  wopts.threads = 1;

  const auto cold = runner::run_shard(specs, plan[1], wopts);
  EXPECT_EQ(cold.cells, plan[1].size());
  EXPECT_EQ(cold.executed, plan[1].size());
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.store_bytes, 0u);
  EXPECT_EQ(cold.fsyncs, 1u) << "the pipeline's closing flush only";

  const auto warm = runner::run_shard(specs, plan[1], wopts);
  EXPECT_EQ(warm.hits, plan[1].size());
  EXPECT_EQ(warm.executed, 0u);
}

TEST(Shard, MultiProcessRunMergesByteIdenticalToSingleProcess) {
  const auto specs = runner::scale_grid(200);

  // Reference: one process, its own cache directory, the whole grid.
  const std::string single_dir = fresh_dir("shard_single");
  std::uint64_t single_executed = 0;
  const std::string single = merged_jsonl(specs, single_dir, &single_executed);
  EXPECT_EQ(single_executed, specs.size());

  for (const int k : {2, 5}) {
    const std::string dir = fresh_dir("shard_multi_" + std::to_string(k));
    runner::ShardDriverOptions dopts;
    dopts.cache_dir = dir;
    dopts.shards = k;
    const auto run = runner::run_sharded(specs, dopts);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.total(&runner::ShardWorkerStats::cells), specs.size());
    EXPECT_EQ(run.total(&runner::ShardWorkerStats::executed), specs.size());
    for (const auto& w : run.workers) EXPECT_TRUE(w.reported);

    // The merge run serves every cell from the workers' segments and its
    // sink bytes match the single-process run exactly.
    std::uint64_t merged_executed = 1;
    EXPECT_EQ(merged_jsonl(specs, dir, &merged_executed), single);
    EXPECT_EQ(merged_executed, 0u);
  }
}

TEST(Shard, KilledWorkerResumesWithoutReexecutingCommittedCells) {
  const std::string dir = fresh_dir("shard_kill");
  const auto specs = runner::scale_grid(200);
  const auto plan = runner::plan_shards(specs, 4);
  const std::uint64_t committed = 7;
  ASSERT_GT(plan[2].size(), committed);

  runner::ShardDriverOptions dopts;
  dopts.cache_dir = dir;
  dopts.shards = 4;
  dopts.kill_worker = 2;
  dopts.kill_after = committed;

  // Run 1: worker 2 flushes after `committed` cells and SIGKILLs itself.
  const auto run1 = runner::run_sharded(specs, dopts);
  EXPECT_FALSE(run1.ok());
  const auto& killed = worker_for_shard(run1, 2);
  EXPECT_TRUE(WIFSIGNALED(killed.wait_status));
  EXPECT_EQ(WTERMSIG(killed.wait_status), SIGKILL);
  EXPECT_FALSE(killed.reported);

  // Run 2: exactly the committed prefix is served; nothing re-executes.
  dopts.kill_worker = -1;
  dopts.kill_after = 0;
  const auto run2 = runner::run_sharded(specs, dopts);
  ASSERT_TRUE(run2.ok());
  const auto& resumed = worker_for_shard(run2, 2);
  EXPECT_EQ(resumed.stats.hits, committed);
  EXPECT_EQ(resumed.stats.executed, resumed.stats.cells - committed);
  for (const int s : {0, 1, 3}) {
    const auto& w = worker_for_shard(run2, s);
    EXPECT_EQ(w.stats.hits, w.stats.cells);  // survivors fully committed
    EXPECT_EQ(w.stats.executed, 0u);
  }

  // Run 3: fully warm — zero executions anywhere.
  const auto run3 = runner::run_sharded(specs, dopts);
  ASSERT_TRUE(run3.ok());
  EXPECT_EQ(run3.total(&runner::ShardWorkerStats::executed), 0u);
  EXPECT_EQ(run3.total(&runner::ShardWorkerStats::hits), specs.size());

  // And the merge is still byte-identical to a fresh single-process run.
  const std::string single_dir = fresh_dir("shard_kill_single");
  std::uint64_t merged_executed = 1;
  const std::string merged = merged_jsonl(specs, dir, &merged_executed);
  EXPECT_EQ(merged_executed, 0u);
  EXPECT_EQ(merged, merged_jsonl(specs, single_dir));
}

TEST(Shard, WorkerStatsAreTheWorkersRegistryCounters) {
  // One count per event: each reported worker's stats are read from its
  // own registry snapshot, so they match it exactly — the fsync that seals
  // the worker's segment on the way out included — on a cold pass (stores,
  // flushes, seals) and a warm one (hits only).
  const std::string dir = fresh_dir("shard_counters");
  const auto specs = runner::scale_grid(200);
  runner::ShardDriverOptions dopts;
  dopts.cache_dir = dir;
  dopts.shards = 3;
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    const auto run = runner::run_sharded(specs, dopts);
    ASSERT_TRUE(run.ok());
    for (const auto& w : run.workers) {
      ASSERT_TRUE(w.reported);
      EXPECT_EQ(w.stats.hits, counter(w.metrics, "pipeline.cache_hits"));
      EXPECT_EQ(w.stats.executed, counter(w.metrics, "pipeline.executed"));
      EXPECT_EQ(w.stats.fsyncs, counter(w.metrics, "sweepcache.fsyncs"));
      EXPECT_EQ(w.stats.store_bytes,
                counter(w.metrics, "sweepcache.store_bytes"));
    }
    EXPECT_EQ(run.total(&runner::ShardWorkerStats::fsyncs),
              counter(run.fleet_metrics, "sweepcache.fsyncs"));
  }
}

TEST(Shard, FailingWorkerWritesNoSnapshot) {
  // A cache directory under a regular file cannot be created, so every
  // worker throws: it prints one `error: shard <k>:` line on stderr, exits
  // 1 and reports nothing.
  const std::string file = fresh_dir("shard_not_a_dir");
  std::ofstream(file) << "not a directory\n";
  runner::ShardDriverOptions dopts;
  dopts.cache_dir = file + "/cache";
  dopts.shards = 2;
  const auto run = runner::run_sharded(runner::scale_grid(50), dopts);
  EXPECT_FALSE(run.ok());
  ASSERT_EQ(run.workers.size(), 2u);
  for (const auto& w : run.workers) {
    EXPECT_TRUE(WIFEXITED(w.wait_status));
    EXPECT_EQ(WEXITSTATUS(w.wait_status), 1);
    EXPECT_FALSE(w.reported);
    EXPECT_TRUE(w.metrics.empty());
  }
  EXPECT_TRUE(run.fleet_metrics.empty());
}

TEST(Shard, SnapshotsLargerThanAPipeBufferArriveWhole) {
  // Registered names survive the worker's reset(), so every worker's
  // snapshot also lists these zero-valued counters: ~75 KB each, past
  // PIPE_BUF and past a default 64 KiB pipe, so the parent must read each
  // pipe while its worker is still writing.
  for (int i = 0; i < 150; ++i) {
    obs::metrics().counter("test.padding." + std::string(480, 'x') + "." +
                           std::to_string(i));
  }
  const std::string dir = fresh_dir("shard_big_snapshot");
  const auto specs = runner::scale_grid(200);
  runner::ShardDriverOptions dopts;
  dopts.cache_dir = dir;
  dopts.shards = 4;
  const auto run = runner::run_sharded(specs, dopts);
  ASSERT_TRUE(run.ok());
  for (const auto& w : run.workers) {
    EXPECT_TRUE(w.reported);
    EXPECT_GT(w.metrics.to_text().size(), 64u * 1024);
  }
  EXPECT_EQ(counter(run.fleet_metrics, "pipeline.executed"), specs.size());
}

}  // namespace
}  // namespace asyncrv
