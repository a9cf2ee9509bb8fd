// Algorithm SGL end-to-end: every agent outputs the complete label set,
// across graphs, team sizes, wake-up schedules and both Phase-3 modes.
#include "sgl/sgl.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/builders.h"
#include "graph/catalog.h"

namespace asyncrv {
namespace {

TrajKit& kit() {
  static TrajKit k(PPoly::tiny(), 0x5eed0001);
  return k;
}

Bag expected_bag(const std::vector<SglAgentSpec>& specs) {
  Bag b;
  for (const auto& s : specs) b[s.label] = s.value;
  return b;
}

void expect_all_correct(const SglRunResult& res,
                        const std::vector<SglAgentSpec>& specs,
                        const std::string& context) {
  ASSERT_TRUE(res.completed) << context << " (budget=" << res.budget_exhausted
                             << " stuck=" << res.stuck << ")";
  const Bag want = expected_bag(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(res.outputs[i], want)
        << context << ": agent with label " << specs[i].label;
  }
}

std::vector<SglAgentSpec> make_specs(const std::vector<std::uint64_t>& labels) {
  std::vector<SglAgentSpec> specs;
  Node start = 0;
  for (std::uint64_t lab : labels) {
    SglAgentSpec s;
    s.start = start++;
    s.label = lab;
    s.value = "v";
    s.value += std::to_string(lab);
    specs.push_back(s);
  }
  return specs;
}

TEST(Sgl, TwoAgentsOnEdge) {
  Graph g = make_edge();
  auto specs = make_specs({5, 2});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(30'000'000, 1);
  expect_all_correct(res, specs, "edge/n2");
}

TEST(Sgl, ThreeAgentsOnRing) {
  Graph g = make_ring(4);
  auto specs = make_specs({7, 3, 12});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(60'000'000, 2);
  expect_all_correct(res, specs, "ring/n4");
}

TEST(Sgl, SmallestAgentEndsExplorerOthersGhost) {
  Graph g = make_path(3);
  auto specs = make_specs({9, 4});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(30'000'000, 3);
  expect_all_correct(res, specs, "path/n3");
  // The smallest-labeled agent is the one that broadcasts; it never ghosts.
  int smallest_idx = specs[0].label < specs[1].label ? 0 : 1;
  EXPECT_EQ(res.final_states[static_cast<std::size_t>(smallest_idx)],
            SglState::Explorer);
}

class SglGraphSuite : public ::testing::TestWithParam<NamedGraph> {};

TEST_P(SglGraphSuite, TeamOfThree) {
  const Graph& g = GetParam().graph;
  if (g.size() > 6) GTEST_SKIP() << "SGL suite runs on n <= 6";
  if (g.size() < 3) GTEST_SKIP() << "3 agents need 3 distinct start nodes";
  auto specs = make_specs({6, 11, 3});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(120'000'000, 4);
  expect_all_correct(res, specs, GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(SmallCatalog, SglGraphSuite,
                         ::testing::ValuesIn(small_catalog()),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (char& c : n) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Sgl, DormantAgentWokenByVisit) {
  // One agent starts dormant and is only woken when someone sweeps its
  // node (wake_after_units = 0 disables the adversary wake-up).
  Graph g = make_ring(4);
  auto specs = make_specs({4, 9, 6});
  specs[1].initially_awake = false;
  specs[1].wake_after_units = 0;
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(80'000'000, 5);
  expect_all_correct(res, specs, "dormant-by-visit");
}

TEST(Sgl, StaggeredAdversaryWakeups) {
  Graph g = make_path(4);
  auto specs = make_specs({8, 2, 15, 5});
  specs[2].initially_awake = false;
  specs[2].wake_after_units = 40 * static_cast<std::uint64_t>(kEdgeUnits);
  specs[3].initially_awake = false;
  specs[3].wake_after_units = 200 * static_cast<std::uint64_t>(kEdgeUnits);
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(150'000'000, 6);
  expect_all_correct(res, specs, "staggered-wakeups");
}

TEST(Sgl, FourAgentsVariedLabels) {
  Graph g = make_star(5);
  auto specs = make_specs({22, 7, 13, 40});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(150'000'000, 7);
  expect_all_correct(res, specs, "star/n5 k=4");
}

TEST(Sgl, SeedRobustness) {
  Graph g = make_ring(4);
  auto specs = make_specs({3, 10});
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    SglRun run(g, kit(), SglConfig{}, specs);
    const SglRunResult res = run.run(60'000'000, seed);
    expect_all_correct(res, specs, "seed " + std::to_string(seed));
  }
}

TEST(Sgl, FaithfulPhase3OnBenignSchedule) {
  SglConfig cfg;
  cfg.robust_phase3 = false;
  Graph g = make_edge();
  auto specs = make_specs({2, 5});
  SglRun run(g, kit(), cfg, specs);
  const SglRunResult res = run.run(30'000'000, 8);
  expect_all_correct(res, specs, "faithful phase 3");
}

TEST(Sgl, GhostsCarryCompleteBags) {
  Graph g = make_ring(4);
  auto specs = make_specs({30, 20, 10});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(80'000'000, 9);
  expect_all_correct(res, specs, "ghosts");
  int ghosts = 0;
  for (SglState s : res.final_states) ghosts += (s == SglState::Ghost);
  EXPECT_GE(ghosts, 1) << "with k=3 at least one agent must have ghosted";
}

TEST(Sgl, WorksOnPortShuffledGraph) {
  // Agents are anonymous: the protocol cannot depend on the canonical port
  // numbering of the builders.
  Graph g = make_ring(4).shuffle_ports(0xD15C);
  auto specs = make_specs({8, 3, 21});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(80'000'000, 12);
  expect_all_correct(res, specs, "port-shuffled ring");
}

TEST(Sgl, FiveAgents) {
  Graph g = make_ring(5);
  auto specs = make_specs({18, 7, 25, 4, 40});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(250'000'000, 13);
  expect_all_correct(res, specs, "k=5 on ring(5)");
}

TEST(Sgl, LargeLabelGap) {
  // Labels of very different lengths exercise the per-agent pi_hat limits.
  Graph g = make_path(3);
  auto specs = make_specs({2, 1000000});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(80'000'000, 14);
  expect_all_correct(res, specs, "large label gap");
}

TEST(Sgl, AllAgentsDormantButOne) {
  Graph g = make_ring(4);
  auto specs = make_specs({5, 12, 9});
  specs[1].initially_awake = false;
  specs[1].wake_after_units = 0;  // woken only by a visit
  specs[2].initially_awake = false;
  specs[2].wake_after_units = 0;
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(120'000'000, 15);
  expect_all_correct(res, specs, "single awake agent wakes the rest");
}

TEST(Sgl, RejectsSingletonTeam) {
  Graph g = make_edge();
  EXPECT_THROW(SglRun(g, kit(), SglConfig{}, make_specs({1})), std::logic_error);
}

TEST(Sgl, CostIsRecorded) {
  Graph g = make_edge();
  auto specs = make_specs({2, 3});
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(30'000'000, 11);
  ASSERT_TRUE(res.completed);
  EXPECT_GT(res.total_traversals, 0u);
  ASSERT_EQ(res.traversals_per_agent.size(), 2u);
}

TEST(Sgl, TransitionLogIsLegal) {
  // Lifecycle audit: Dormant -> Traveller -> {Explorer -> Ghost | Ghost},
  // never out of Ghost, timestamps non-decreasing.
  Graph g = make_ring(4);
  auto specs = make_specs({13, 5, 28});
  specs[2].initially_awake = false;
  specs[2].wake_after_units = 0;
  SglRun run(g, kit(), SglConfig{}, specs);
  const SglRunResult res = run.run(120'000'000, 16);
  expect_all_correct(res, specs, "transition log run");
  for (int i = 0; i < run.agent_count(); ++i) {
    const auto& ts = run.agent(i).transitions();
    ASSERT_FALSE(ts.empty());
    EXPECT_EQ(ts.front().to, SglState::Traveller)
        << "first transition is the wake-up";
    std::uint64_t prev_time = 0;
    SglState prev = SglState::Dormant;
    for (const SglTransition& t : ts) {
      EXPECT_GE(t.at_total_traversals, prev_time);
      prev_time = t.at_total_traversals;
      switch (t.to) {
        case SglState::Traveller:
          EXPECT_EQ(prev, SglState::Dormant);
          break;
        case SglState::Explorer:
          EXPECT_EQ(prev, SglState::Traveller);
          break;
        case SglState::Ghost:
          EXPECT_TRUE(prev == SglState::Traveller || prev == SglState::Explorer);
          break;
        case SglState::Dormant:
          FAIL() << "no transition back to dormant";
      }
      prev = t.to;
    }
  }
}

TEST(Sgl, StateNames) {
  EXPECT_STREQ(to_string(SglState::Dormant), "dormant");
  EXPECT_STREQ(to_string(SglState::Traveller), "traveller");
  EXPECT_STREQ(to_string(SglState::Explorer), "explorer");
  EXPECT_STREQ(to_string(SglState::Ghost), "ghost");
}

}  // namespace
}  // namespace asyncrv
