// The runner's registry and single-experiment execution: graph/adversary id
// parsing, error containment (bad specs become error outcomes, never
// crashes), streamed callbacks, and — the load-bearing property — that a
// multi-threaded sweep produces a report bit-identical to the
// single-threaded one (per-scenario seeded PRNGs, no shared state).
#include <gtest/gtest.h>

#include <set>

#include "runner/pipeline.h"
#include "runner/registry.h"

namespace asyncrv {
namespace {

TEST(Registry, ParsesEveryFamily) {
  EXPECT_EQ(runner::make_graph("edge").size(), 2u);
  EXPECT_EQ(runner::make_graph("ring:6").size(), 6u);
  EXPECT_EQ(runner::make_graph("path:4").size(), 4u);
  EXPECT_EQ(runner::make_graph("complete:5").edge_count(), 10u);
  EXPECT_EQ(runner::make_graph("star:5").size(), 5u);
  EXPECT_EQ(runner::make_graph("grid:3x4").size(), 12u);
  EXPECT_EQ(runner::make_graph("torus:3x3").size(), 9u);
  EXPECT_EQ(runner::make_graph("bipartite:2x3").size(), 5u);
  EXPECT_EQ(runner::make_graph("tree:8:12").size(), 8u);
  EXPECT_EQ(runner::make_graph("lollipop:6:3").size(), 6u);
  EXPECT_EQ(runner::make_graph("barbell:3:2").size(), 8u);
  EXPECT_EQ(runner::make_graph("hypercube:3").size(), 8u);
  EXPECT_EQ(runner::make_graph("random:7:3:21").size(), 7u);
  EXPECT_EQ(runner::make_graph("petersen").size(), 10u);
  // Port-shuffled twin: same topology, different instance.
  EXPECT_EQ(runner::make_graph("ring:6@7").size(), 6u);
  EXPECT_THROW(runner::make_graph("moebius:6"), std::logic_error);
  EXPECT_THROW(runner::make_graph("ring"), std::logic_error);
  EXPECT_THROW(runner::make_graph("ring:x"), std::logic_error);
  // Negative arguments must not wrap through stoull into giant graphs.
  EXPECT_THROW(runner::make_graph("ring:-3"), std::logic_error);
  EXPECT_THROW(runner::make_graph("grid:3x-4"), std::logic_error);
  EXPECT_THROW(runner::make_graph("ring:"), std::logic_error);
  // Oversized node counts are rejected rather than truncated through the
  // uint32 Node type ("ring:4294967299" would otherwise become ring(3)).
  EXPECT_THROW(runner::make_graph("ring:4294967299"), std::logic_error);
  EXPECT_THROW(runner::make_graph("ring:1000001"), std::logic_error);
  // The per-dimension AND product caps for 2-d families ("grid:100000x
  // 100000" would otherwise wrap w*h inside the builder).
  EXPECT_THROW(runner::make_graph("grid:100000x100000"), std::logic_error);
  // Exponent-argument families are capped on the RESULTING node count:
  // bintree:20 is 2^21-1 = 2,097,151 nodes, over the 1M cap even though
  // "20" itself is tiny (hypercube is additionally builder-capped at d=16).
  EXPECT_THROW(runner::make_graph("bintree:20"), std::logic_error);
  EXPECT_THROW(runner::make_graph("hypercube:40"), std::logic_error);
  EXPECT_EQ(runner::make_graph("bintree:4").size(), 31u);
}

TEST(Registry, SeededRandomRegular) {
  // rreg:<n>,<d>@<seed> — the seed picks the instance, not a port shuffle.
  const Graph g = runner::make_graph("rreg:12,3@7");
  EXPECT_EQ(g.size(), 12u);
  EXPECT_EQ(g.edge_count(), 18u);  // n*d/2
  for (Node v = 0; v < g.size(); ++v) EXPECT_EQ(g.degree(v), 3) << v;
  // Deterministic per seed; different seeds give different instances
  // (compare via DOT-free structural probe: the neighbor multiset of some
  // node eventually differs — cheap proxy: adjacency of node 0).
  const Graph same = runner::make_graph("rreg:12,3@7");
  for (Node v = 0; v < g.size(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      EXPECT_EQ(g.step(v, p).to, same.step(v, p).to);
    }
  }
  EXPECT_EQ(runner::make_graph("rreg:12,3").size(), 12u);  // default seed
  EXPECT_THROW(runner::make_graph("rreg:12@1"), std::logic_error);
  EXPECT_THROW(runner::make_graph("rreg:12,5@1"), std::logic_error);  // odd n*d
  EXPECT_THROW(runner::make_graph("rreg:6,1@1"), std::logic_error);   // d < 2
  EXPECT_THROW(runner::make_graph("rreg:4,4@1"), std::logic_error);   // d >= n
}

TEST(Registry, CatalogIdsMatchCatalog) {
  // The id list reproduces graph/catalog.h's small battery node-for-node.
  const auto ids = runner::small_catalog_ids();
  ASSERT_FALSE(ids.empty());
  for (const std::string& id : ids) {
    EXPECT_GE(runner::make_graph(id).size(), 2u) << id;
  }
}

TEST(Registry, LargeCatalogIdsBuild) {
  // The large-graph lanes (DESIGN.md §7): every id builds, at the size it
  // names, under the registry's 1M-node cap and the builders' 64-bit
  // dimension guards.
  const auto ids = runner::large_catalog_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(runner::make_graph("grid:512x512").size(), 512u * 512u);
  EXPECT_EQ(runner::make_graph("torus:256x256").size(), 256u * 256u);
  const Graph rr = runner::make_graph("rreg:100000,3@7");
  EXPECT_EQ(rr.size(), 100000u);
  EXPECT_EQ(rr.edge_count(), 150000u);
}

TEST(Registry, AdversaryNames) {
  for (const std::string& name : adversary_battery_names()) {
    EXPECT_NE(runner::make_adversary(name, 1), nullptr) << name;
  }
  EXPECT_NE(runner::make_adversary("stall:1:5000", 1), nullptr);
  EXPECT_THROW(runner::make_adversary("gremlin", 1), std::logic_error);
  EXPECT_THROW(runner::make_adversary("stall:99999999999999:5", 1),
               std::logic_error);
  EXPECT_THROW(runner::make_ppoly("huge"), std::logic_error);
}

runner::ExperimentSpec rv_spec(const std::string& graph,
                               const std::string& adversary,
                               std::uint64_t budget) {
  runner::RendezvousSpec rv;
  rv.graph = graph;
  rv.adversary = adversary;
  rv.labels = {5, 12};
  rv.budget = budget;
  return {.name = "", .scenario = std::move(rv)};
}

TEST(Registry, StallAgentOutOfRangeIsAnErrorOutcome) {
  // "stall:7:..." on a 2-agent scenario names a nonexistent agent; the
  // adversary rejects it at run time, surfaced as a contained error.
  const runner::ExperimentOutcome out =
      runner::run_experiment(rv_spec("ring:4", "stall:7:2000", 100'000));
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("stalled agent index out of range"),
            std::string::npos)
      << out.error;
}

TEST(Runner, SingleRendezvousScenario) {
  const runner::ExperimentOutcome out =
      runner::run_experiment(rv_spec("ring:5", "fair", 2'000'000));
  EXPECT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.ok());
  EXPECT_GT(out.cost, 0u);
  ASSERT_NE(out.rendezvous(), nullptr);
  EXPECT_EQ(out.cost, out.rendezvous()->result.cost());
}

TEST(Runner, RecordsScheduleOnRequest) {
  runner::ExperimentSpec spec = rv_spec("ring:5", "oscillating", 2'000'000);
  std::get<runner::RendezvousSpec>(spec.scenario).record_schedule = true;
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_TRUE(out.ok());
  ASSERT_NE(out.rendezvous(), nullptr);
  EXPECT_FALSE(out.rendezvous()->schedule.steps.empty());
}

TEST(Runner, BadSpecsBecomeErrorOutcomesNotCrashes) {
  runner::ExperimentSpec bad_graph = rv_spec("gremlin:4", "fair", 100'000);
  runner::ExperimentSpec bad_labels = rv_spec("ring:4", "fair", 100'000);
  std::get<runner::RendezvousSpec>(bad_labels.scenario).labels = {1};

  const runner::PipelineReport report =
      runner::ExperimentPipeline().run({bad_graph, bad_labels});
  EXPECT_EQ(report.totals.errored, 2u);
  EXPECT_FALSE(report.outcomes[0].error.empty());
  EXPECT_FALSE(report.outcomes[1].error.empty());
  EXPECT_NE(report.summary().find("2 errors"), std::string::npos);
}

TEST(Runner, SglScenarioCompletes) {
  runner::SglSpec sgl;
  sgl.graph = "ring:3";
  sgl.labels = {3, 7};
  sgl.budget = 60'000'000;
  sgl.seed = 5;
  const runner::ExperimentOutcome out =
      runner::run_experiment({.name = "", .scenario = std::move(sgl)});
  EXPECT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.ok());
  ASSERT_NE(out.sgl(), nullptr);
  EXPECT_EQ(out.sgl()->apps.team_size.at(3), 2u);
  EXPECT_EQ(out.sgl()->apps.leader.at(7), 3u);
}

/// Field-by-field equality of two outcomes (rendezvous arm).
void expect_identical(const runner::ExperimentOutcome& a,
                      const runner::ExperimentOutcome& b,
                      const std::string& ctx) {
  EXPECT_EQ(a.index, b.index) << ctx;
  EXPECT_EQ(a.ok(), b.ok()) << ctx;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << ctx;
  EXPECT_EQ(a.cost, b.cost) << ctx;
  EXPECT_EQ(a.error, b.error) << ctx;
  const runner::RendezvousOutcome* rva = a.rendezvous();
  const runner::RendezvousOutcome* rvb = b.rendezvous();
  ASSERT_EQ(rva == nullptr, rvb == nullptr) << ctx;
  if (rva == nullptr) return;
  EXPECT_EQ(rva->result.met, rvb->result.met) << ctx;
  EXPECT_EQ(rva->result.traversals_a, rvb->result.traversals_a) << ctx;
  EXPECT_EQ(rva->result.traversals_b, rvb->result.traversals_b) << ctx;
  EXPECT_TRUE(rva->result.meeting_point == rvb->result.meeting_point) << ctx;
}

TEST(Runner, HundredScenarioSweepIsThreadCountInvariant) {
  // >= 100 scenarios: 5 cheap graphs x 10 adversaries x 2 label pairs.
  const auto specs = runner::rendezvous_grid(
      {"edge", "path:3", "ring:3", "ring:4", "star:5"},
      adversary_battery_names(), {{1, 2}, {5, 12}},
      /*budget=*/400'000, /*seed=*/0xbeef);
  ASSERT_GE(specs.size(), 100u);

  runner::PipelineOptions serial;
  serial.threads = 1;
  runner::CollectorSink base_table;
  serial.sinks = {&base_table};
  const runner::PipelineReport base =
      runner::ExperimentPipeline(serial).run(specs);
  const std::vector<runner::Row>& base_rows = base_table.last().rows;

  for (int threads : {2, 4}) {
    runner::PipelineOptions opts;
    opts.threads = threads;
    runner::CollectorSink par_table;
    opts.sinks = {&par_table};
    const runner::PipelineReport par =
        runner::ExperimentPipeline(opts).run(specs);
    const std::vector<runner::Row>& par_rows = par_table.last().rows;
    ASSERT_EQ(par.outcomes.size(), base.outcomes.size());
    for (std::size_t i = 0; i < base.outcomes.size(); ++i) {
      expect_identical(base.outcomes[i], par.outcomes[i],
                       specs[i].display() + " @" + std::to_string(threads));
    }
    // The whole aggregated report — including its rendering — is
    // bit-identical.
    EXPECT_EQ(par.totals.scenarios, base.totals.scenarios);
    EXPECT_EQ(par.totals.succeeded, base.totals.succeeded);
    EXPECT_EQ(par.totals.unresolved, base.totals.unresolved);
    EXPECT_EQ(par.totals.errored, base.totals.errored);
    EXPECT_EQ(par.totals.total_cost, base.totals.total_cost);
    EXPECT_EQ(par.totals.max_cost, base.totals.max_cost);
    EXPECT_EQ(par.summary(), base.summary());
    ASSERT_EQ(par_rows.size(), base_rows.size());
    for (std::size_t i = 0; i < base_rows.size(); ++i) {
      for (std::size_t c = 0; c < base_rows[i].size(); ++c) {
        EXPECT_EQ(runner::render_value(par_rows[i][c]),
                  runner::render_value(base_rows[i][c]))
            << "row " << i << " @" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace asyncrv
