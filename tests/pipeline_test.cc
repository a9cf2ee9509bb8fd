// The experiment pipeline: thread-count invariance on the typed API, sink
// emission, and aggregate hygiene (errored scenarios never contribute
// cost — the regression behind the pre-pipeline double-counting fix).
#include "runner/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "runner/registry.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

std::vector<runner::ExperimentSpec> small_grid() {
  return runner::rendezvous_grid(
      {"edge", "path:3", "ring:3", "ring:4", "star:5"},
      adversary_battery_names(), {{1, 2}, {5, 12}},
      /*budget=*/400'000, /*seed=*/0xbeef);
}

TEST(Pipeline, RowsAreThreadCountInvariant) {
  const auto specs = small_grid();
  ASSERT_GE(specs.size(), 100u);

  runner::PipelineOptions serial;
  serial.threads = 1;
  runner::CollectorSink base_rows;
  serial.sinks = {&base_rows};
  const runner::PipelineReport base =
      runner::ExperimentPipeline(serial).run(specs);

  for (int threads : {2, 4}) {
    runner::PipelineOptions opts;
    opts.threads = threads;
    runner::CollectorSink rows;
    opts.sinks = {&rows};
    const runner::PipelineReport par =
        runner::ExperimentPipeline(opts).run(specs);
    ASSERT_EQ(par.rows.size(), base.rows.size());
    for (std::size_t i = 0; i < base.rows.size(); ++i) {
      ASSERT_EQ(par.rows[i].size(), base.rows[i].size());
      for (std::size_t c = 0; c < base.rows[i].size(); ++c) {
        EXPECT_EQ(runner::render_value(par.rows[i][c]),
                  runner::render_value(base.rows[i][c]))
            << "row " << i << " col " << base.schema[c].name << " @"
            << threads;
      }
    }
    EXPECT_EQ(par.totals.succeeded, base.totals.succeeded);
    EXPECT_EQ(par.totals.total_cost, base.totals.total_cost);
    EXPECT_EQ(par.totals.max_cost, base.totals.max_cost);
    // What the sinks saw is the same table.
    ASSERT_EQ(rows.tables().size(), 1u);
    EXPECT_EQ(rows.last().rows.size(), base_rows.last().rows.size());
  }
}

TEST(Pipeline, ErroredScenariosAreExcludedFromCostAggregates) {
  // A scenario that RAN (cost > 0) but whose streamed callback threw is
  // counted as errored; its cost must not inflate the totals. This is the
  // double-counting regression: the legacy runner kept such costs.
  runner::RendezvousSpec good;
  good.graph = "ring:4";
  good.labels = {5, 12};
  good.budget = 1'000'000;
  good.adversary = "fair";
  const runner::ExperimentSpec spec{.name = "", .scenario = good};

  const runner::PipelineReport clean =
      runner::ExperimentPipeline().run({spec, spec});
  ASSERT_EQ(clean.totals.errored, 0u);
  ASSERT_GT(clean.totals.total_cost, 0u);

  runner::PipelineOptions opts;
  std::size_t calls = 0;
  opts.on_outcome = [&calls](const runner::ExperimentSpec&,
                             const runner::ExperimentOutcome&) {
    if (++calls == 2) throw std::runtime_error("progress pipe closed");
  };
  opts.threads = 1;
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run({spec, spec});
  EXPECT_EQ(report.totals.errored, 1u);
  EXPECT_EQ(report.totals.succeeded, 1u);
  // Only the clean scenario contributes; both ran with identical cost.
  EXPECT_EQ(report.totals.total_cost, clean.totals.total_cost / 2);
  EXPECT_EQ(report.totals.max_cost, clean.totals.max_cost);
}

TEST(Pipeline, AllScenariosErroredMeansZeroCostAggregates) {
  // When every streamed callback throws, every scenario is errored: the
  // aggregates must report zero cost even though each run measured one.
  const auto specs = runner::rendezvous_grid({"ring:4"}, {"fair", "random50"},
                                             {{5, 12}}, 1'000'000, 3);
  const runner::PipelineReport clean = runner::ExperimentPipeline().run(specs);
  ASSERT_EQ(clean.totals.errored, 0u);
  ASSERT_GT(clean.totals.total_cost, 0u);

  runner::PipelineOptions opts;
  opts.threads = 1;
  opts.on_outcome = [](const runner::ExperimentSpec&,
                       const runner::ExperimentOutcome&) {
    throw std::runtime_error("boom");
  };
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(specs);
  EXPECT_EQ(report.totals.errored, 2u);
  EXPECT_EQ(report.totals.total_cost, 0u);
  EXPECT_EQ(report.totals.max_cost, 0u);
  // The outcome itself still reports what the run measured.
  EXPECT_GT(report.outcomes[0].cost, 0u);
  EXPECT_NE(report.outcomes[0].error.find("on_outcome callback threw"),
            std::string::npos);
}

TEST(Pipeline, StreamedCallbackSeesEveryScenario) {
  // Every scenario is delivered exactly once, in spec order, whatever order
  // the pool finishes them in — scalar or batched, cold or partly warm
  // (cache hits wait for the misses before them).
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "path:3", "star:5", "ring:3"}, {"fair", "random50"},
      {{5, 12}, {1, 2}}, 1'000'000, 1);
  ASSERT_EQ(specs.size(), 16u);
  std::vector<std::size_t> expected(specs.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;

  std::vector<runner::ExperimentSpec> odd;
  for (std::size_t i = 1; i < specs.size(); i += 2) odd.push_back(specs[i]);

  for (const bool cached : {false, true}) {
    for (const bool batch : {false, true}) {
      for (const int threads : {1, 2, 4}) {
        // A fresh cache holding every odd-indexed cell.
        const fs::path dir =
            fs::path(testing::TempDir()) / "asyncrv_streamed";
        fs::remove_all(dir);
        const runner::SweepCache cache(dir.string());
        runner::PipelineOptions warmup;
        warmup.cache = &cache;
        runner::ExperimentPipeline(warmup).run(odd);

        std::vector<std::size_t> seen;
        runner::PipelineOptions opts;
        opts.threads = threads;
        opts.batch = batch;
        opts.batch_size = 2;
        if (cached) opts.cache = &cache;
        opts.on_outcome = [&seen](const runner::ExperimentSpec&,
                                  const runner::ExperimentOutcome& out) {
          seen.push_back(out.index);
        };
        const runner::PipelineReport report =
            runner::ExperimentPipeline(opts).run(specs);
        EXPECT_EQ(seen, expected) << "threads=" << threads << " batch="
                                  << batch << " cached=" << cached;
        EXPECT_EQ(report.totals.scenarios, specs.size());
        EXPECT_EQ(report.cache_hits, cached ? odd.size() : 0u);
      }
    }
  }
}

TEST(Pipeline, SweepRowCarriesFingerprintAndStatus) {
  runner::RendezvousSpec rv;
  rv.graph = "ring:5";
  rv.labels = {5, 12};
  rv.budget = 2'000'000;
  const runner::ExperimentSpec spec{.name = "", .scenario = rv};
  const runner::PipelineReport report =
      runner::ExperimentPipeline().run({spec});
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(runner::render_value(
                runner::cell(report.schema, report.rows[0], "fingerprint")),
            spec.fingerprint().hex());
  EXPECT_EQ(runner::render_value(
                runner::cell(report.schema, report.rows[0], "status")),
            "ok");
  EXPECT_EQ(runner::render_value(
                runner::cell(report.schema, report.rows[0], "kind")),
            "rendezvous");
}

}  // namespace
}  // namespace asyncrv
