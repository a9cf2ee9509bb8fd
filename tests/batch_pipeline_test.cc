// The pipeline's batched execution mode (PipelineOptions::batch): every
// observable byte must match the scalar path — the golden E9 battery row
// for row, JSONL output across thread counts, warm-cache replays (zero
// simulations re-executed, batches included), and the scalar fallbacks
// (non-rendezvous kinds, malformed cells) which must keep their exact
// scalar outcomes, error text included.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "runner/batch.h"
#include "runner/pipeline.h"
#include "runner/registry.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// The E9 golden battery: every small-catalog graph under every battery
/// adversary, the 170 rows the batch path must reproduce bit-for-bit
/// (bench_adversaries.cc builds the same grid).
std::vector<runner::ExperimentSpec> golden_battery(std::uint64_t budget) {
  std::vector<runner::ExperimentSpec> specs;
  for (const std::string& g : runner::small_catalog_ids()) {
    for (const std::string& adv : adversary_battery_names()) {
      runner::RendezvousSpec rv;
      rv.graph = g;
      rv.adversary = adv;
      rv.labels = {9, 14};
      rv.budget = budget;
      rv.seed = runner::battery_seed(adv, 0xE9);
      specs.push_back({.name = "", .scenario = std::move(rv)});
    }
  }
  return specs;
}

std::string run_to_jsonl(const std::vector<runner::ExperimentSpec>& specs,
                         runner::PipelineOptions opts,
                         runner::PipelineReport* report_out = nullptr) {
  std::ostringstream os;
  runner::JsonlSink jsonl(os);
  opts.sinks.push_back(&jsonl);
  runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(specs);
  if (report_out) *report_out = std::move(report);
  return os.str();
}

TEST(BatchPipeline, GoldenBatteryIsBitIdenticalToScalar) {
  const auto specs = golden_battery(/*budget=*/40'000'000);
  ASSERT_EQ(specs.size(), 170u);

  runner::PipelineOptions scalar;
  scalar.threads = 4;
  runner::CollectorSink scalar_table;
  scalar.sinks = {&scalar_table};
  runner::PipelineReport scalar_report;
  const std::string scalar_jsonl = run_to_jsonl(specs, scalar, &scalar_report);
  EXPECT_EQ(scalar_report.batched, 0u);

  runner::PipelineOptions batched;
  batched.threads = 4;
  batched.batch = true;
  runner::CollectorSink batch_table;
  batched.sinks = {&batch_table};
  runner::PipelineReport batch_report;
  const std::string batch_jsonl = run_to_jsonl(specs, batched, &batch_report);

  // Every cell is a plain rendezvous spec: all of them batch.
  EXPECT_EQ(batch_report.batched, specs.size());
  EXPECT_EQ(batch_report.executed, specs.size());
  // Status, charged cost, traversal split, fingerprints — every rendered
  // byte of every row.
  EXPECT_EQ(batch_jsonl, scalar_jsonl);
  ASSERT_EQ(batch_table.last().rows.size(), scalar_table.last().rows.size());
  EXPECT_EQ(batch_report.totals.succeeded, scalar_report.totals.succeeded);
  EXPECT_EQ(batch_report.totals.total_cost, scalar_report.totals.total_cost);
  EXPECT_EQ(batch_report.totals.max_cost, scalar_report.totals.max_cost);
  EXPECT_EQ(batch_report.totals.errored, 0u);
}

TEST(BatchPipeline, BatchedJsonlIsByteIdenticalAcrossThreadCounts) {
  // Heterogeneous sweep (several topologies, two label pairs): batch
  // formation groups by topology before the pool starts, so the emitted
  // bytes must not depend on which worker runs which batch.
  const auto specs = runner::rendezvous_grid(
      {"edge", "path:3", "ring:3", "ring:4", "star:5"},
      adversary_battery_names(), {{1, 2}, {5, 12}},
      /*budget=*/400'000, /*seed=*/0xbeef);
  ASSERT_GE(specs.size(), 100u);

  runner::PipelineOptions scalar;
  scalar.threads = 1;
  const std::string scalar_jsonl = run_to_jsonl(specs, scalar);

  for (int threads : {1, 2, 4}) {
    runner::PipelineOptions opts;
    opts.threads = threads;
    opts.batch = true;
    runner::PipelineReport report;
    const std::string jsonl = run_to_jsonl(specs, opts, &report);
    EXPECT_EQ(jsonl, scalar_jsonl) << "threads " << threads;
    EXPECT_EQ(report.batched, specs.size()) << "threads " << threads;
  }
}

TEST(BatchPipeline, SmallBatchSizeSplitsGroupsWithoutChangingBytes) {
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "ring:5"}, {"fair", "random50", "burst"}, {{5, 12}},
      /*budget=*/400'000, /*seed=*/7);
  runner::PipelineOptions scalar;
  scalar.threads = 1;
  const std::string scalar_jsonl = run_to_jsonl(specs, scalar);

  runner::PipelineOptions opts;
  opts.threads = 2;
  opts.batch = true;
  opts.batch_size = 2;  // forces several batches per topology group
  runner::PipelineReport report;
  EXPECT_EQ(run_to_jsonl(specs, opts, &report), scalar_jsonl);
  EXPECT_EQ(report.batched, specs.size());
}

TEST(BatchPipeline, WarmBatchedSweepExecutesZeroSimulations) {
  // Cache hits are served in phase 1, BEFORE batch formation: the warm
  // run must form no batches, execute nothing, and still emit the cold
  // run's exact bytes.
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "path:3"}, {"fair", "random50", "skew"}, {{5, 12}},
      /*budget=*/400'000, /*seed=*/11);
  const runner::SweepCache cache(fresh_dir("batch_warm"));

  runner::PipelineOptions opts;
  opts.threads = 2;
  opts.batch = true;
  opts.cache = &cache;

  runner::PipelineReport cold_report;
  const std::string cold = run_to_jsonl(specs, opts, &cold_report);
  EXPECT_EQ(cold_report.cache_hits, 0u);
  EXPECT_EQ(cold_report.executed, specs.size());
  EXPECT_EQ(cold_report.batched, specs.size());

  runner::PipelineReport warm_report;
  const std::string warm = run_to_jsonl(specs, opts, &warm_report);
  EXPECT_EQ(warm_report.cache_hits, specs.size());
  EXPECT_EQ(warm_report.executed, 0u);
  EXPECT_EQ(warm_report.batched, 0u);
  EXPECT_EQ(warm, cold);
}

TEST(BatchPipeline, NonRendezvousAndMalformedCellsFallBackToScalar) {
  // A mixed sweep: good rendezvous cells, a search cell and an SGL cell
  // (kinds the batch path does not cover), and deterministic-error cells
  // (wrong label count, unknown adversary, unknown graph). Batch mode must
  // reproduce the scalar report byte for byte — error text included — and
  // count only the actually-batched lanes.
  std::vector<runner::ExperimentSpec> specs;
  runner::RendezvousSpec good;
  good.graph = "ring:4";
  good.labels = {5, 12};
  good.budget = 400'000;
  specs.push_back({.name = "", .scenario = good});

  runner::SearchSpec search;
  search.graph = "ring:4";
  search.evaluations = 5;
  search.budget = 100'000;
  specs.push_back({.name = "", .scenario = search});

  runner::SglSpec sgl;
  sgl.graph = "ring:5";
  sgl.labels = {3, 9};
  specs.push_back({.name = "", .scenario = sgl});

  runner::RendezvousSpec bad_labels = good;
  bad_labels.labels = {1, 2, 3};
  specs.push_back({.name = "", .scenario = bad_labels});

  runner::RendezvousSpec bad_adv = good;
  bad_adv.adversary = "no-such-strategy";
  specs.push_back({.name = "", .scenario = bad_adv});

  runner::RendezvousSpec bad_graph = good;
  bad_graph.graph = "dodecahedron:12";
  specs.push_back({.name = "", .scenario = bad_graph});

  runner::PipelineOptions scalar;
  scalar.threads = 1;
  runner::PipelineReport scalar_report;
  const std::string scalar_jsonl = run_to_jsonl(specs, scalar, &scalar_report);

  runner::PipelineOptions opts;
  opts.threads = 2;
  opts.batch = true;
  runner::PipelineReport report;
  const std::string jsonl = run_to_jsonl(specs, opts, &report);
  EXPECT_EQ(jsonl, scalar_jsonl);
  // Only the well-formed rendezvous cell actually ran batched; the bad
  // graph killed its whole (single-cell) group, the other two rendezvous
  // cells fell back at lane setup, search/SGL never formed batches.
  EXPECT_EQ(report.batched, 1u);
  EXPECT_EQ(report.executed, specs.size());
  ASSERT_EQ(report.outcomes.size(), scalar_report.outcomes.size());
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].error, scalar_report.outcomes[i].error)
        << "spec " << i;
  }
}

TEST(BatchPipeline, RecordedSchedulesMatchScalar) {
  // record_schedule rides through the batch path: the recorded adversary
  // decisions must be the scalar run's exact step sequence.
  std::vector<runner::ExperimentSpec> specs;
  for (const char* adv : {"fair", "random50", "avoider"}) {
    runner::RendezvousSpec rv;
    rv.graph = "ring:5";
    rv.adversary = adv;
    rv.labels = {5, 12};
    rv.budget = 400'000;
    rv.seed = 99;
    rv.record_schedule = true;
    specs.push_back({.name = "", .scenario = std::move(rv)});
  }

  runner::PipelineOptions scalar;
  scalar.threads = 1;
  const runner::PipelineReport scalar_report =
      runner::ExperimentPipeline(scalar).run(specs);

  runner::PipelineOptions opts;
  opts.threads = 1;
  opts.batch = true;
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(specs);

  ASSERT_EQ(report.outcomes.size(), scalar_report.outcomes.size());
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const runner::RendezvousOutcome* got = report.outcomes[i].rendezvous();
    const runner::RendezvousOutcome* want =
        scalar_report.outcomes[i].rendezvous();
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(got->schedule.to_text(), want->schedule.to_text())
        << "spec " << i;
  }
}

TEST(BatchPipeline, FormBatchesGroupsByTopologyAndChunks) {
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "ring:5"}, {"fair", "random50", "burst"}, {{5, 12}},
      /*budget=*/400'000, /*seed=*/7);
  ASSERT_EQ(specs.size(), 6u);
  std::vector<std::size_t> misses = {0, 1, 2, 3, 4, 5};
  std::vector<std::size_t> scalar;
  const auto batches = runner::form_batches(specs, misses, 2, &scalar);
  EXPECT_TRUE(scalar.empty());
  ASSERT_EQ(batches.size(), 4u);  // two topologies x ceil(3 / 2)
  for (const runner::SpecBatch& b : batches) {
    ASSERT_FALSE(b.indices.empty());
    const std::string& g =
        specs[b.indices.front()].rendezvous()->graph;
    for (const std::size_t i : b.indices) {
      EXPECT_EQ(specs[i].rendezvous()->graph, g);
    }
  }
}

}  // namespace
}  // namespace asyncrv
