// Search scenarios through the experiment pipeline — the integration layer
// and the PR's acceptance property: on catalog scenarios the searched
// adversary strictly beats every hand-written catalog adversary, and the
// winning genome is persisted, cache-round-tripped and replayed
// bit-identically (DESIGN.md §6).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "runner/cache.h"
#include "runner/outcome.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "search/objective.h"
#include "traj/traj.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

runner::ExperimentSpec search_spec(const std::string& graph, Node start_b,
                                   const std::string& objective = "rv-cost",
                                   std::uint64_t evaluations = 240) {
  runner::SearchSpec se;
  se.graph = graph;
  se.objective = objective;
  se.optimizer = "hill";
  se.labels = {5, 12};
  se.starts = {0, start_b};
  se.budget = 40'000;
  se.evaluations = evaluations;
  se.genome_len = 16;
  se.seed = 0x5ea2c4;
  return {.name = "", .scenario = std::move(se)};
}

TEST(SearchPipeline, RunsAsAnExperiment) {
  const runner::ExperimentOutcome out =
      runner::run_experiment(search_spec("ring:6", 3, "rv-cost", 40));
  EXPECT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.ok());
  ASSERT_NE(out.search(), nullptr);
  const runner::SearchOutcome& so = *out.search();
  EXPECT_EQ(so.evaluations, 40u);
  EXPECT_EQ(out.cost, so.best_cost);
  EXPECT_TRUE(
      search::ScheduleGenome::from_text(so.best_genome).has_value())
      << so.best_genome;
}

TEST(SearchPipeline, BadSearchSpecsAreContainedErrors) {
  runner::ExperimentSpec bad_objective = search_spec("ring:6", 3);
  std::get<runner::SearchSpec>(bad_objective.scenario).objective = "gremlin";
  runner::ExperimentSpec bad_optimizer = search_spec("ring:6", 3);
  std::get<runner::SearchSpec>(bad_optimizer.scenario).optimizer = "gremlin";
  runner::ExperimentSpec bad_evals = search_spec("ring:6", 3);
  std::get<runner::SearchSpec>(bad_evals.scenario).evaluations = 0;
  runner::ExperimentSpec bad_graph = search_spec("gremlin:6", 3);

  const runner::PipelineReport report = runner::ExperimentPipeline().run(
      {bad_objective, bad_optimizer, bad_evals, bad_graph});
  EXPECT_EQ(report.totals.errored, 4u);
  for (const runner::ExperimentOutcome& out : report.outcomes) {
    EXPECT_FALSE(out.error.empty());
    EXPECT_FALSE(out.transient_error);  // deterministic spec errors cache
  }
}

TEST(SearchPipeline, SweepRowCarriesSearchColumns) {
  const runner::ExperimentSpec spec = search_spec("ring:6", 3, "rv-cost", 30);
  const runner::PipelineReport report =
      runner::ExperimentPipeline().run({spec});
  ASSERT_EQ(report.rows.size(), 1u);
  const auto col = [&](const std::string& name) {
    return runner::render_value(
        runner::cell(report.schema, report.rows[0], name));
  };
  EXPECT_EQ(col("kind"), "search");
  EXPECT_EQ(col("adversary"), "search:hill");
  EXPECT_EQ(col("algo"), "rv-cost");
  EXPECT_EQ(col("status"), "ok");
  EXPECT_EQ(col("fingerprint"), spec.fingerprint().hex());
}

/// Every catalog adversary's cost on the identical instance, with the
/// historical battery seed offsets.
std::vector<std::uint64_t> catalog_costs(const runner::SearchSpec& se) {
  std::vector<runner::ExperimentSpec> specs;
  for (const std::string& name : adversary_battery_names()) {
    runner::RendezvousSpec rv;
    rv.graph = se.graph;
    rv.adversary = name;
    rv.labels = se.labels;
    rv.starts = se.starts;
    rv.budget = se.budget;
    rv.seed = runner::battery_seed(name, se.seed);
    specs.push_back({.name = name, .scenario = std::move(rv)});
  }
  const runner::PipelineReport report =
      runner::ExperimentPipeline().run(std::move(specs));
  std::vector<std::uint64_t> costs;
  for (const runner::ExperimentOutcome& out : report.outcomes) {
    EXPECT_TRUE(out.error.empty()) << out.error;
    costs.push_back(out.cost);
  }
  return costs;
}

TEST(SearchPipeline, SearchedAdversaryBeatsTheCatalogAndReplaysExactly) {
  // The PR's acceptance property, on three catalog scenarios. Everything
  // is seeded, so these are deterministic regressions, not flaky races.
  struct Case {
    std::string graph;
    Node start_b;
  };
  const std::vector<Case> cases = {{"ring:12", 6}, {"torus:4x4", 10},
                                   {"petersen", 9}};
  const std::string cache_dir = fresh_dir("search_acceptance");
  const runner::SweepCache cache(cache_dir);

  for (const Case& c : cases) {
    const runner::ExperimentSpec spec = search_spec(c.graph, c.start_b);
    const runner::SearchSpec& se = *spec.search();

    runner::PipelineOptions opts;
    opts.cache = &cache;
    const runner::PipelineReport cold =
        runner::ExperimentPipeline(opts).run({spec});
    ASSERT_EQ(cold.executed, 1u) << c.graph;
    const runner::ExperimentOutcome& out = cold.outcomes.front();
    ASSERT_TRUE(out.ok()) << c.graph << ": " << out.error;
    const runner::SearchOutcome& so = *out.search();

    // (1) Strictly higher rendezvous cost than EVERY catalog adversary.
    for (std::uint64_t catalog_cost : catalog_costs(se)) {
      EXPECT_GT(so.best_cost, catalog_cost) << c.graph;
    }

    // (2) The winning genome was persisted and cache-round-trips exactly.
    const auto cached = cache.lookup(spec);
    ASSERT_TRUE(cached.has_value()) << c.graph;
    const runner::SearchOutcome* cached_so = cached->search();
    ASSERT_NE(cached_so, nullptr) << c.graph;
    EXPECT_EQ(cached_so->best_genome, so.best_genome) << c.graph;
    EXPECT_EQ(cached_so->best_score, so.best_score) << c.graph;
    EXPECT_EQ(cached_so->best_cost, so.best_cost) << c.graph;
    EXPECT_EQ(cached_so->violations, so.violations) << c.graph;
    EXPECT_EQ(cached_so->evaluations, so.evaluations) << c.graph;
    EXPECT_EQ(cached->cost, out.cost) << c.graph;

    // (3) The persisted genome replays bit-identically: decode the cached
    // text and re-run the winning schedule from scratch (twice — with and
    // without a shared engine arena).
    const auto genome =
        search::ScheduleGenome::from_text(cached_so->best_genome);
    ASSERT_TRUE(genome.has_value()) << c.graph;
    const Graph g = runner::make_graph(se.graph);
    const TrajKit kit(runner::make_ppoly(se.ppoly), se.kit_seed);
    const search::Problem problem = runner::search_problem(se, g, kit);
    sim::EngineScratch scratch;
    for (sim::EngineScratch* arena : {(sim::EngineScratch*)nullptr, &scratch}) {
      const search::Evaluation replay =
          search::evaluate(problem, *genome, arena);
      EXPECT_EQ(replay.score, so.best_score) << c.graph;
      EXPECT_EQ(replay.cost, so.best_cost) << c.graph;
      EXPECT_EQ(replay.met, so.best_met) << c.graph;
      EXPECT_EQ(replay.phase, so.best_phase) << c.graph;
      EXPECT_EQ(replay.violation, so.best_violation) << c.graph;
    }

    // Warm re-run: served from cache, zero executions, identical rows.
    const runner::PipelineReport warm =
        runner::ExperimentPipeline(opts).run({spec});
    EXPECT_EQ(warm.cache_hits, 1u) << c.graph;
    EXPECT_EQ(warm.executed, 0u) << c.graph;
    ASSERT_EQ(warm.rows.size(), cold.rows.size());
    for (std::size_t col = 0; col < cold.rows[0].size(); ++col) {
      EXPECT_EQ(runner::render_value(warm.rows[0][col]),
                runner::render_value(cold.rows[0][col]))
          << c.graph << " col " << col;
    }
  }
}

TEST(SearchPipeline, EsstSearchRunsAndStaysInsideTheBracketWhenStopping) {
  runner::ExperimentSpec spec = search_spec("ring:8", 4, "esst-phase", 30);
  std::get<runner::SearchSpec>(spec.scenario).budget = 25'000;
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_TRUE(out.ok()) << out.error;
  const runner::SearchOutcome& so = *out.search();
  EXPECT_EQ(so.bound, 9u * 8u + 3u);
  // A successful stop above 9n+3 would falsify Theorem 2.1; searches on
  // the certified battery must never find one.
  EXPECT_EQ(so.violations, 0u);
}

TEST(SearchPipeline, PinnedRingTwelveMarginCounterexampleStillViolates) {
  // The genuine CalibratedPi breach the full-budget search discovered
  // (DESIGN.md §6): freezing agent 1 at ring:12's antipodal node defeats
  // the calibration, because label 5's executable-scale route never
  // reaches that node. Pinned so the finding (and the violation
  // classifier) cannot silently rot. ~5M simulated traversals.
  const auto genome =
      search::ScheduleGenome::from_text("0:884309:1,2:6356:1");
  ASSERT_TRUE(genome.has_value());
  const Graph g = runner::make_graph("ring:12");
  const TrajKit kit(runner::make_ppoly("tiny"), 0x5eed0001);
  search::Problem problem;
  problem.graph = &g;
  problem.kit = &kit;
  problem.objective = search::Objective::PiMargin;
  problem.labels = {5, 12};
  problem.starts = {0, 6};
  // Full hunt: the budget must clear pi_hat/2, or the violation is
  // unreachable by construction.
  problem.budget = 6'000'000;
  const search::Evaluation e = search::evaluate(problem, *genome, nullptr);
  EXPECT_TRUE(e.violation);
  EXPECT_FALSE(e.met);
  EXPECT_GT(e.cost, e.bound / 2);
  EXPECT_EQ(e.bound, search::pi_margin_bound(g, 5, 12));
}

TEST(SearchPipeline, PiMarginSearchFindsNoViolationOnCertifiedGraphs) {
  // The calibration soundness claim of DESIGN.md §2.2, attacked instead of
  // sampled: even an optimizing adversary stays inside the half-margin on
  // battery graphs.
  for (const char* graph : {"ring:6", "petersen"}) {
    runner::ExperimentSpec spec = search_spec(graph, 3, "pi-margin", 120);
    // Budget past pi_hat/2 on both graphs: the assertion must not be
    // vacuously true because violations were out of budget reach.
    std::get<runner::SearchSpec>(spec.scenario).budget = 4'000'000;
    const runner::ExperimentOutcome out = runner::run_experiment(spec);
    ASSERT_TRUE(out.ok()) << graph << ": " << out.error;
    const runner::SearchOutcome& so = *out.search();
    EXPECT_EQ(so.violations, 0u) << graph << " genome " << so.best_genome;
    EXPECT_FALSE(so.best_violation) << graph;
    EXPECT_LE(so.best_cost, so.bound / 2) << graph;
  }
}

}  // namespace
}  // namespace asyncrv
