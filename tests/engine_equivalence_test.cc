// Cross-engine equivalence: every two-agent scenario (each Adversary in the
// battery × each catalog graph) must produce the identical RendezvousResult
// through the production run loop (sim::run_rendezvous; its results fill the
// `legacy_*` tables, named for the two-agent API that once wrapped it) and
// through an independent hand-driven loop over sim::SimEngine. Both are
// additionally pinned against kGoldenPreRefactor —
// the exact results captured from the PRE-refactor two-agent simulator
// (seed commit, duplicated-sweep implementation) for the same scenarios —
// so faithfulness of the engine extraction is falsifiable, not circular.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/catalog.h"
#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "traj/traj.h"

namespace asyncrv {
namespace {

constexpr std::uint64_t kLabelA = 9;
constexpr std::uint64_t kLabelB = 14;
constexpr std::uint64_t kBudget = 3'000'000;
constexpr std::uint64_t kBatterySeed = 0x0e15e;

// "<graph> <adversary> met|budget|end <traversals_a> <traversals_b> <pos|->"
// per battery x catalog cell, captured from the pre-refactor simulator.
constexpr char kGoldenPreRefactor[] = R"golden(edge/n2 fair met 1 0 node(1)
edge/n2 random50 met 1 0 node(1)
edge/n2 random85 met 1 1 edge(0@991085/1048576)
edge/n2 stall-a met 0 1 node(0)
edge/n2 stall-b met 1 0 node(1)
edge/n2 burst met 0 1 node(0)
edge/n2 oscillating met 1 1 edge(0@878704/1048576)
edge/n2 avoider met 1 1 edge(0@1012208/1048576)
edge/n2 phase met 1 0 node(1)
edge/n2 skew met 0 1 node(0)
path/n3 fair met 1 1 node(1)
path/n3 random50 met 2 1 edge(1@226725/1048576)
path/n3 random85 met 2 1 edge(1@433054/1048576)
path/n3 stall-a met 0 2 node(0)
path/n3 stall-b met 2 0 node(2)
path/n3 burst met 0 2 node(0)
path/n3 oscillating met 2 1 edge(1@8546/1048576)
path/n3 avoider met 2 1 edge(1@810567/1048576)
path/n3 phase met 2 0 node(2)
path/n3 skew met 1 2 edge(0@65536/1048576)
path/n5 fair met 2 2 node(2)
path/n5 random50 met 5 2 edge(2@674625/1048576)
path/n5 random85 met 5 2 edge(2@445309/1048576)
path/n5 stall-a met 0 206 node(0)
path/n5 stall-b met 84 0 node(4)
path/n5 burst met 5 7 node(3)
path/n5 oscillating met 5 3 edge(2@374579/1048576)
path/n5 avoider met 5 4 edge(2@173454/1048576)
path/n5 phase met 41 5 node(1)
path/n5 skew met 2 25 edge(1@524288/1048576)
ring/n3 fair met 1 0 node(2)
ring/n3 random50 met 1 0 node(2)
ring/n3 random85 met 1 1 edge(2@991085/1048576)
ring/n3 stall-a met 0 1 node(0)
ring/n3 stall-b met 1 0 node(2)
ring/n3 burst met 0 1 node(0)
ring/n3 oscillating met 1 1 edge(2@878704/1048576)
ring/n3 avoider met 1 1 edge(2@1012208/1048576)
ring/n3 phase met 1 0 node(2)
ring/n3 skew met 0 1 node(0)
ring/n4 fair met 1 0 node(3)
ring/n4 random50 met 1 0 node(3)
ring/n4 random85 met 1 1 edge(3@991085/1048576)
ring/n4 stall-a met 0 1 node(0)
ring/n4 stall-b met 1 0 node(3)
ring/n4 burst met 0 1 node(0)
ring/n4 oscillating met 1 1 edge(3@878704/1048576)
ring/n4 avoider met 1 1 edge(3@1012208/1048576)
ring/n4 phase met 1 0 node(3)
ring/n4 skew met 0 1 node(0)
ring/n6 fair met 1 0 node(5)
ring/n6 random50 met 1 0 node(5)
ring/n6 random85 met 1 1 edge(5@991085/1048576)
ring/n6 stall-a met 0 1 node(0)
ring/n6 stall-b met 1 0 node(5)
ring/n6 burst met 0 1 node(0)
ring/n6 oscillating met 1 1 edge(5@878704/1048576)
ring/n6 avoider met 1 1 edge(5@1012208/1048576)
ring/n6 phase met 1 0 node(5)
ring/n6 skew met 0 1 node(0)
star/n5 fair met 2 1 node(0)
star/n5 random50 met 3 1 edge(3@63832/1048576)
star/n5 random85 met 3 1 edge(3@433054/1048576)
star/n5 stall-a met 0 1 node(0)
star/n5 stall-b met 3 0 node(4)
star/n5 burst met 0 1 node(0)
star/n5 oscillating met 5 4 edge(0@604389/1048576)
star/n5 avoider met 5 5 edge(0@582812/1048576)
star/n5 phase met 3 0 node(4)
star/n5 skew met 0 1 node(0)
complete/n4 fair met 1 0 node(3)
complete/n4 random50 met 1 0 node(3)
complete/n4 random85 met 2 1 edge(5@433054/1048576)
complete/n4 stall-a met 0 3 node(0)
complete/n4 stall-b met 1 0 node(3)
complete/n4 burst met 0 3 node(0)
complete/n4 oscillating met 9 11 node(3)
complete/n4 avoider met 2 1 edge(5@691355/1048576)
complete/n4 phase met 1 0 node(3)
complete/n4 skew met 1 11 edge(2@655360/1048576)
complete/n5 fair met 5 4 node(1)
complete/n5 random50 met 23 13 edge(2@315764/1048576)
complete/n5 random85 met 12 3 edge(9@492822/1048576)
complete/n5 stall-a met 0 5 node(0)
complete/n5 stall-b met 2 0 node(4)
complete/n5 burst met 0 5 node(0)
complete/n5 oscillating met 35 37 edge(4@933298/1048576)
complete/n5 avoider met 16 18 edge(2@562070/1048576)
complete/n5 phase met 2 0 node(4)
complete/n5 skew met 1 10 edge(1@589824/1048576)
grid/2x3 fair met 2 1 node(4)
grid/2x3 random50 met 5 1 edge(6@63832/1048576)
grid/2x3 random85 met 4 2 edge(4@445309/1048576)
grid/2x3 stall-a met 0 245 node(0)
grid/2x3 stall-b met 5 0 node(5)
grid/2x3 burst met 2 7 node(4)
grid/2x3 oscillating met 2 2 edge(4@754112/1048576)
grid/2x3 avoider met 2 2 edge(4@810567/1048576)
grid/2x3 phase met 5 0 node(5)
grid/2x3 skew met 1 16 node(2)
tree/n6 fair met 1 0 node(5)
tree/n6 random50 met 1 0 node(5)
tree/n6 random85 met 1 1 edge(4@991085/1048576)
tree/n6 stall-a met 0 1 node(0)
tree/n6 stall-b met 1 0 node(5)
tree/n6 burst met 0 1 node(0)
tree/n6 oscillating met 1 1 edge(4@878704/1048576)
tree/n6 avoider met 1 1 edge(4@1012208/1048576)
tree/n6 phase met 1 0 node(5)
tree/n6 skew met 0 1 node(0)
tree/n8 fair met 3 2 node(3)
tree/n8 random50 met 11 6 edge(0@744522/1048576)
tree/n8 random85 met 46 6 edge(0@443381/1048576)
tree/n8 stall-a met 0 5 node(0)
tree/n8 stall-b met 127 0 node(7)
tree/n8 burst met 0 5 node(0)
tree/n8 oscillating met 8 8 edge(5@852852/1048576)
tree/n8 avoider met 10 8 edge(5@890737/1048576)
tree/n8 phase met 41 6 node(1)
tree/n8 skew met 1 8 edge(5@458752/1048576)
lollipop/n6k3 fair met 2 2 node(3)
lollipop/n6k3 random50 met 5 2 edge(4@674625/1048576)
lollipop/n6k3 random85 met 5 2 edge(4@445309/1048576)
lollipop/n6k3 stall-a met 0 7 node(0)
lollipop/n6k3 stall-b met 48 0 node(5)
lollipop/n6k3 burst met 0 7 node(0)
lollipop/n6k3 oscillating met 5 3 edge(4@374579/1048576)
lollipop/n6k3 avoider met 5 4 edge(4@173454/1048576)
lollipop/n6k3 phase met 41 5 node(2)
lollipop/n6k3 skew met 1 10 edge(1@589824/1048576)
bipartite/2x3 fair met 1 0 node(4)
bipartite/2x3 random50 met 1 0 node(4)
bipartite/2x3 random85 met 2 1 edge(5@433054/1048576)
bipartite/2x3 stall-a met 0 5 node(0)
bipartite/2x3 stall-b met 1 0 node(4)
bipartite/2x3 burst met 0 5 node(0)
bipartite/2x3 oscillating met 3 3 edge(4@377044/1048576)
bipartite/2x3 avoider met 2 1 edge(5@691355/1048576)
bipartite/2x3 phase met 1 0 node(4)
bipartite/2x3 skew met 1 16 node(4)
ringchord/n6 fair met 9 8 node(3)
ringchord/n6 random50 met 18 8 edge(6@647885/1048576)
ringchord/n6 random85 met 66 8 edge(6@272378/1048576)
ringchord/n6 stall-a met 0 1 node(0)
ringchord/n6 stall-b met 5 0 node(5)
ringchord/n6 burst met 0 1 node(0)
ringchord/n6 oscillating met 12 14 edge(6@172752/1048576)
ringchord/n6 avoider met 72 60 edge(3@542842/1048576)
ringchord/n6 phase met 5 0 node(5)
ringchord/n6 skew met 0 1 node(0)
random/n7 fair met 3 2 node(2)
random/n7 random50 met 5 1 edge(8@63832/1048576)
random/n7 random85 met 4 2 edge(4@445309/1048576)
random/n7 stall-a met 0 3 node(0)
random/n7 stall-b met 5 0 node(6)
random/n7 burst met 0 3 node(0)
random/n7 oscillating met 3 3 edge(1@377044/1048576)
random/n7 avoider met 3 3 edge(1@50878/1048576)
random/n7 phase met 5 0 node(6)
random/n7 skew met 1 8 edge(3@458752/1048576)
petersen/n10 fair met 1 1 node(4)
petersen/n10 random50 met 9 5 edge(12@128396/1048576)
petersen/n10 random85 met 38 5 edge(12@730849/1048576)
petersen/n10 stall-a met 0 2 node(0)
petersen/n10 stall-b met 6 0 node(9)
petersen/n10 burst met 0 2 node(0)
petersen/n10 oscillating met 7 7 node(4)
petersen/n10 avoider met 8 5 edge(12@1031599/1048576)
petersen/n10 phase met 6 0 node(9)
petersen/n10 skew met 1 2 edge(12@65536/1048576)
)golden";

TrajKit& kit() {
  static TrajKit k(PPoly::tiny(), 0x5eed0001);
  return k;
}

sim::MoveSource route(const Graph& g, Node start, std::uint64_t label) {
  return sim::make_walker_route(
      g, start, [label](Walker& w) { return rv_route(w, kit(), label, nullptr); });
}

std::string golden_line(const std::string& graph_name, const std::string& adv,
                        const RendezvousResult& r) {
  std::ostringstream os;
  os << graph_name << " " << adv << " "
     << (r.met ? "met" : (r.budget_exhausted ? "budget" : "end")) << " "
     << r.traversals_a << " " << r.traversals_b << " "
     << (r.met ? r.meeting_point.str() : "-") << "\n";
  return os.str();
}

/// The scenario through the production run loop.
RendezvousResult run_production(const Graph& g, Adversary& adv) {
  const Node sb = g.size() - 1;
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({route(g, 0, kLabelA), 0});
  engine.add_agent({route(g, sb, kLabelB), sb});
  return sim::run_rendezvous(engine, adv, kBudget);
}

/// The same scenario driven directly against a SimEngine, with a run loop
/// written only against the engine-level API (deliberately NOT reusing
/// sim::run_rendezvous, so this is an independent reimplementation).
RendezvousResult run_engine(const Graph& g, Adversary& adv) {
  const Node sb = g.size() - 1;
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({route(g, 0, kLabelA), 0, true, sim::EndPolicy::Sticky});
  engine.add_agent({route(g, sb, kLabelB), sb, true, sim::EndPolicy::Sticky});

  RendezvousResult res;
  const std::uint64_t max_steps = 16 * kBudget + (1u << 20);
  std::uint64_t steps = 0;
  while (!engine.met()) {
    if (engine.charged_traversals(0) + engine.charged_traversals(1) >= kBudget ||
        ++steps > max_steps) {
      res.budget_exhausted = true;
      break;
    }
    if (engine.route_ended(0) && engine.route_ended(1)) break;
    const AdvStep step = adv.next(engine);
    engine.advance(step.agent, step.delta);
  }
  res.met = engine.met();
  res.meeting_point = engine.meeting_point();
  res.traversals_a = engine.charged_traversals(0);
  res.traversals_b = engine.charged_traversals(1);
  return res;
}

TEST(EngineEquivalence, EveryAdversaryOnEveryCatalogGraph) {
  std::string legacy_table, engine_table;
  for (const auto& [name, g] : small_catalog()) {
    // Two separately constructed batteries with the same seed give the two
    // runs identical decision streams.
    auto legacy_advs = adversary_battery(kBatterySeed);
    auto engine_advs = adversary_battery(kBatterySeed);
    const auto names = adversary_battery_names();
    for (std::size_t i = 0; i < legacy_advs.size(); ++i) {
      const RendezvousResult a = run_production(g, *legacy_advs[i]);
      const RendezvousResult b = run_engine(g, *engine_advs[i]);
      const std::string ctx = name + " / " + names[i];
      EXPECT_EQ(a.met, b.met) << ctx;
      EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << ctx;
      EXPECT_EQ(a.traversals_a, b.traversals_a) << ctx;
      EXPECT_EQ(a.traversals_b, b.traversals_b) << ctx;
      EXPECT_TRUE(a.meeting_point == b.meeting_point) << ctx;
      legacy_table += golden_line(name, names[i], a);
      engine_table += golden_line(name, names[i], b);
    }
  }
  // Faithfulness of the extraction: both paths reproduce the pre-refactor
  // simulator's results exactly.
  EXPECT_EQ(legacy_table, kGoldenPreRefactor);
  EXPECT_EQ(engine_table, kGoldenPreRefactor);
}

TEST(EngineEquivalence, ScriptedBackwardMotionMatches) {
  // The oscillating adversary exercises backward in-edge motion; equality
  // of the full result covers the backward sweep path too. Run it on a
  // couple of dedicated seeds for extra depth.
  for (std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    const Graph g = small_catalog()[4].graph;  // ring/n4
    auto adv_a = make_oscillating_adversary(seed);
    auto adv_b = make_oscillating_adversary(seed);
    const RendezvousResult a = run_production(g, *adv_a);
    const RendezvousResult b = run_engine(g, *adv_b);
    EXPECT_EQ(a.met, b.met) << seed;
    EXPECT_EQ(a.traversals_a, b.traversals_a) << seed;
    EXPECT_EQ(a.traversals_b, b.traversals_b) << seed;
    EXPECT_TRUE(a.meeting_point == b.meeting_point) << seed;
  }
}

}  // namespace
}  // namespace asyncrv
