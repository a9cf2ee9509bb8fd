// The experiment pipeline: thread-count invariance on the typed API, rows
// streamed to the sinks in spec order (and a throwing sink's containment),
// and aggregate hygiene (errored scenarios never contribute cost — the
// regression behind the pre-pipeline double-counting fix).
#include "runner/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

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
  const runner::CollectorSink::Table& want = base_rows.last();
  ASSERT_EQ(want.rows.size(), specs.size());

  for (int threads : {2, 4}) {
    runner::PipelineOptions opts;
    opts.threads = threads;
    runner::CollectorSink rows;
    opts.sinks = {&rows};
    const runner::PipelineReport par =
        runner::ExperimentPipeline(opts).run(specs);
    // What the sinks saw is the same table.
    ASSERT_EQ(rows.tables().size(), 1u);
    const runner::CollectorSink::Table& got = rows.last();
    ASSERT_EQ(got.rows.size(), want.rows.size());
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_EQ(got.rows[i].size(), want.rows[i].size());
      for (std::size_t c = 0; c < want.rows[i].size(); ++c) {
        EXPECT_EQ(runner::render_value(got.rows[i][c]),
                  runner::render_value(want.rows[i][c]))
            << "row " << i << " col " << want.schema[c].name << " @"
            << threads;
      }
    }
    EXPECT_EQ(par.totals.succeeded, base.totals.succeeded);
    EXPECT_EQ(par.totals.total_cost, base.totals.total_cost);
    EXPECT_EQ(par.totals.max_cost, base.totals.max_cost);
  }
}

TEST(Pipeline, GroupByExcludesErroredCosts) {
  // An errored row that still carries a cost (it ran, then failed) must
  // not inflate any cost aggregate — the double-counting regression: the
  // legacy runner kept such costs.
  const runner::Schema schema = runner::sweep_schema();
  const auto row = [&](const std::string& graph, const std::string& status,
                       std::uint64_t cost) {
    runner::Row r;
    for (const runner::Column& col : schema) {
      if (col.type == runner::ColumnType::U64) r.emplace_back(std::uint64_t{0});
      else r.emplace_back(std::string());
    }
    r[runner::column_of(schema, "graph")] = graph;
    r[runner::column_of(schema, "status")] = status;
    r[runner::column_of(schema, "cost")] = cost;
    return r;
  };
  const std::vector<runner::Row> rows = {
      row("ring:4", "ok", 100),      row("ring:4", "error", 5000),
      row("ring:4", "no-meet", 300), row("path:3", "error", 7000),
  };
  const auto groups = runner::group_by(schema, rows, "graph");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].key, "ring:4");
  EXPECT_EQ(groups[0].scenarios, 3u);
  EXPECT_EQ(groups[0].succeeded, 1u);
  EXPECT_EQ(groups[0].unresolved, 1u);
  EXPECT_EQ(groups[0].errored, 1u);
  EXPECT_EQ(groups[0].total_cost, 400u);
  EXPECT_EQ(groups[0].max_cost, 300u);
  EXPECT_EQ(groups[0].max_met_cost, 100u);
  // A group of nothing but errors has zero cost aggregates.
  EXPECT_EQ(groups[1].key, "path:3");
  EXPECT_EQ(groups[1].errored, 1u);
  EXPECT_EQ(groups[1].total_cost, 0u);
  EXPECT_EQ(groups[1].max_cost, 0u);
}

TEST(Pipeline, TotalsAgreeWithGroupByOverTheStreamedTable) {
  // The report totals and group_by share one set of aggregate rules: over
  // a run with good, unresolved and errored cells, a one-group rollup of
  // the streamed table equals the totals field by field.
  auto specs = runner::rendezvous_grid({"ring:4", "path:3"},
                                       {"fair", "random50"}, {{5, 12}},
                                       1'000'000, 3);
  runner::RendezvousSpec starved;
  starved.graph = "ring:6";
  starved.labels = {5, 12};
  starved.starts = {0, 3};
  starved.budget = 2;  // too short to cross 3 edges: unresolved, with a cost
  specs.push_back({.name = "", .scenario = starved});
  runner::RendezvousSpec bad = starved;
  bad.labels = {5};  // contained error at run time
  specs.push_back({.name = "", .scenario = bad});

  runner::CollectorSink table;
  runner::PipelineOptions opts;
  opts.sinks = {&table};
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(specs);
  EXPECT_EQ(report.totals.errored, 1u);
  EXPECT_EQ(report.totals.unresolved, 1u);
  EXPECT_GT(report.outcomes[specs.size() - 2].cost, 0u);
  const auto groups =
      runner::group_by(table.last().schema, table.last().rows, "kind");
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].scenarios, report.totals.scenarios);
  EXPECT_EQ(groups[0].succeeded, report.totals.succeeded);
  EXPECT_EQ(groups[0].unresolved, report.totals.unresolved);
  EXPECT_EQ(groups[0].errored, report.totals.errored);
  EXPECT_EQ(groups[0].total_cost, report.totals.total_cost);
  EXPECT_EQ(groups[0].max_cost, report.totals.max_cost);
  EXPECT_EQ(groups[0].max_met_cost, report.totals.max_met_cost);
}

/// Counts the begin()/end() calls a sink receives.
class BracketCounter final : public runner::ResultSink {
 public:
  void begin(const runner::Schema&) override { ++begins; }
  void row(const runner::Row&) override {}
  void end() override { ++ends; }
  int begins = 0, ends = 0;
};

TEST(Pipeline, SinksSeeEveryRowInSpecOrder) {
  // Every scenario is streamed exactly once, in spec order, whatever order
  // the pool finishes them in — scalar or batched, cold or partly warm
  // (cache hits wait for the misses before them) — inside one begin/end.
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "path:3", "star:5", "ring:3"}, {"fair", "random50"},
      {{5, 12}, {1, 2}}, 1'000'000, 1);
  ASSERT_EQ(specs.size(), 16u);
  std::vector<std::string> expected(specs.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = std::to_string(i);
  }

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

        runner::CollectorSink table;
        BracketCounter brackets;
        runner::PipelineOptions opts;
        opts.threads = threads;
        opts.batch = batch;
        opts.batch_size = 2;
        opts.sinks = {&table, &brackets};
        if (cached) opts.cache = &cache;
        const runner::PipelineReport report =
            runner::ExperimentPipeline(opts).run(specs);
        const std::string where = "threads=" + std::to_string(threads) +
                                  " batch=" + std::to_string(batch) +
                                  " cached=" + std::to_string(cached);
        EXPECT_EQ(brackets.begins, 1) << where;
        EXPECT_EQ(brackets.ends, 1) << where;
        ASSERT_EQ(table.tables().size(), 1u) << where;
        std::vector<std::string> seen;
        for (const runner::Row& r : table.last().rows) {
          seen.push_back(
              runner::render_value(runner::cell(table.last().schema, r,
                                                "index")));
        }
        EXPECT_EQ(seen, expected) << where;
        EXPECT_EQ(report.totals.scenarios, specs.size());
        EXPECT_EQ(report.cache_hits, cached ? odd.size() : 0u);
      }
    }
  }
}

/// Throws on its `k`-th row (1-based) and records how many rows it saw.
class ThrowingSink final : public runner::ResultSink {
 public:
  explicit ThrowingSink(std::size_t k) : k_(k) {}
  void begin(const runner::Schema&) override {}
  void row(const runner::Row&) override {
    if (++rows == k_) throw std::runtime_error("progress pipe closed");
  }
  void end() override { ++ends; }
  std::size_t rows = 0;
  int ends = 0;

 private:
  const std::size_t k_;
};

TEST(Pipeline, ThrowingSinkFailsTheRunButNotTheCache) {
  // A sink that throws is an environmental failure of THIS run: run()
  // rethrows it, but only after every cell ran and was stored and the
  // cache was flushed — so a re-run is all hits with clean outcomes.
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "path:3"}, {"fair", "random50"}, {{5, 12}}, 1'000'000, 5);
  ASSERT_EQ(specs.size(), 4u);
  const fs::path dir = fs::path(testing::TempDir()) / "asyncrv_throwing";
  fs::remove_all(dir);
  const runner::SweepCache cache(dir.string());

  ThrowingSink thrower(2);
  runner::CollectorSink after;
  runner::PipelineOptions opts;
  opts.threads = 2;
  opts.cache = &cache;
  opts.sinks = {&thrower, &after};
  EXPECT_THROW(runner::ExperimentPipeline(opts).run(specs),
               std::runtime_error);
  // Rows stopped at the throw, for every sink, and nobody saw end().
  EXPECT_EQ(thrower.rows, 2u);
  EXPECT_EQ(thrower.ends, 0);
  ASSERT_EQ(after.tables().size(), 1u);
  EXPECT_EQ(after.last().rows.size(), 1u);

  runner::PipelineOptions clean;
  clean.cache = &cache;
  const runner::PipelineReport rerun =
      runner::ExperimentPipeline(clean).run(specs);
  EXPECT_EQ(rerun.cache_hits, specs.size());
  EXPECT_EQ(rerun.executed, 0u);
  EXPECT_EQ(rerun.totals.succeeded, specs.size());
  for (const runner::ExperimentOutcome& out : rerun.outcomes) {
    EXPECT_TRUE(out.error.empty()) << out.error;
  }
}

TEST(Pipeline, SweepRowCarriesFingerprintAndStatus) {
  runner::RendezvousSpec rv;
  rv.graph = "ring:5";
  rv.labels = {5, 12};
  rv.budget = 2'000'000;
  const runner::ExperimentSpec spec{.name = "", .scenario = rv};
  runner::CollectorSink table;
  runner::PipelineOptions opts;
  opts.sinks = {&table};
  runner::ExperimentPipeline(opts).run({spec});
  const auto& [schema, rows] = table.last();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(runner::render_value(runner::cell(schema, rows[0], "fingerprint")),
            spec.fingerprint().hex());
  EXPECT_EQ(runner::render_value(runner::cell(schema, rows[0], "status")),
            "ok");
  EXPECT_EQ(runner::render_value(runner::cell(schema, rows[0], "kind")),
            "rendezvous");
}

}  // namespace
}  // namespace asyncrv
