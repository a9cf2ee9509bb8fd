// The two-agent rendezvous model: a Halt-policy SimEngine with two Sticky
// agents. Meeting detection in nodes and inside edges, crossing detection,
// backward motion, budgets, and the Lemma 3.1 property (one agent repeating
// X(m, v) while the other follows a full X(m, u) forces a meeting).
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <deque>

#include "graph/builders.h"
#include "sim/adversary.h"
#include "traj/traj.h"

namespace asyncrv {
namespace {

/// A scripted move source: a fixed list of ports from a start node.
sim::MoveSource scripted(const Graph& g, Node start, std::vector<Port> ports) {
  auto state = std::make_shared<std::pair<Node, std::deque<Port>>>(
      start, std::deque<Port>(ports.begin(), ports.end()));
  return [&g, state]() -> std::optional<Move> {
    if (state->second.empty()) return std::nullopt;
    const Port p = state->second.front();
    state->second.pop_front();
    const Graph::Half h = g.step(state->first, p);
    Move m{state->first, h.to, p, h.port_at_to};
    state->first = h.to;
    return m;
  };
}

/// Adds agent a (index 0) and agent b (index 1) to a two-agent engine.
void add_pair(sim::SimEngine& eng, sim::MoveSource a, Node start_a,
              sim::MoveSource b, Node start_b) {
  eng.add_agent({std::move(a), start_a});
  eng.add_agent({std::move(b), start_b});
}

/// Advances agent idx by delta and reports whether the engine has met.
bool advance_met(sim::SimEngine& eng, int idx, std::int64_t delta) {
  eng.advance(idx, delta);
  return eng.met();
}

TEST(TwoAgentRendezvous, HeadOnCrossingMeetsInsideEdge) {
  // Two agents walking the single edge of K2 towards each other.
  Graph g = make_edge();
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0}), 0, scripted(g, 1, {0}), 1);
  // Move agent 0 half-way, then agent 1 across: they must meet inside.
  EXPECT_FALSE(advance_met(eng, 0, kEdgeUnits / 2));
  EXPECT_TRUE(advance_met(eng, 1, kEdgeUnits));
  EXPECT_TRUE(eng.met());
  EXPECT_EQ(eng.meeting_point().kind, Pos::Kind::Edge);
}

TEST(TwoAgentRendezvous, MeetsAtNode) {
  Graph g = make_path(3);  // 0-1-2
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0}), 0, scripted(g, 2, {0}), 2);
  EXPECT_FALSE(advance_met(eng, 0, kEdgeUnits));  // agent a now at node 1
  EXPECT_TRUE(advance_met(eng, 1, kEdgeUnits));   // agent b arrives at node 1
  EXPECT_TRUE(eng.met());
  EXPECT_EQ(eng.meeting_point(), Pos::at_node(1));
}

TEST(TwoAgentRendezvous, SweepingPastStationaryAgentMeets) {
  // Agent b parked mid-edge; agent a traverses that edge in one jump.
  // (In path(3), node 1's ports are 0 -> node 0 and 1 -> node 2.)
  Graph g = make_path(3);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0, 1}), 0, scripted(g, 2, {0}), 2);
  EXPECT_FALSE(advance_met(eng, 1, kEdgeUnits / 3));  // b inside edge {1,2}
  EXPECT_FALSE(advance_met(eng, 0, kEdgeUnits));      // a at node 1
  EXPECT_TRUE(advance_met(eng, 0, kEdgeUnits));       // a sweeps edge {1,2}
  EXPECT_TRUE(eng.met());
  EXPECT_EQ(eng.meeting_point().kind, Pos::Kind::Edge);
}

TEST(TwoAgentRendezvous, BackwardMotionStaysOnEdgeAndCanMeet) {
  Graph g = make_path(3);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0}), 0, scripted(g, 2, {0, 0}), 2);
  EXPECT_FALSE(advance_met(eng, 0, kEdgeUnits / 2));  // a inside edge {0,1}
  // Backward past 0 clamps at the from-node.
  EXPECT_FALSE(advance_met(eng, 0, -kEdgeUnits));
  EXPECT_EQ(eng.position(0), Pos::at_node(0));
  // b crosses 2->1 then enters edge {1,0} and walks into a (at node 0).
  EXPECT_FALSE(advance_met(eng, 1, kEdgeUnits));
  EXPECT_TRUE(advance_met(eng, 1, kEdgeUnits));
  EXPECT_TRUE(eng.met());
  EXPECT_EQ(eng.meeting_point(), Pos::at_node(0));
}

TEST(TwoAgentRendezvous, ChargedTraversalsCountPartialEdges) {
  Graph g = make_path(3);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0, 0}), 0, scripted(g, 2, {}), 2);
  EXPECT_EQ(eng.charged_traversals(0), 0u);
  eng.advance(0, kEdgeUnits / 2);
  EXPECT_EQ(eng.charged_traversals(0), 1u) << "partial traversal is charged";
  eng.advance(0, kEdgeUnits / 2);
  EXPECT_EQ(eng.charged_traversals(0), 1u);
  EXPECT_EQ(eng.completed_traversals(0), 1u);
}

TEST(TwoAgentRendezvous, RouteEndsAreDetected) {
  Graph g = make_path(4);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0}), 0, scripted(g, 3, {0}), 3);
  eng.advance(0, 2 * kEdgeUnits);
  EXPECT_TRUE(eng.route_ended(0));
  EXPECT_FALSE(eng.route_ended(1));
}

TEST(TwoAgentRendezvous, RunWithFairAdversaryOnCollidingRoutes) {
  Graph g = make_ring(6);
  // Both agents walk clockwise forever... then one reverses: script long
  // opposite walks to force a crossing under any fair schedule.
  std::vector<Port> cw(32, 1), ccw(32, 0);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, cw), 0, scripted(g, 3, ccw), 3);
  auto adv = make_fair_adversary();
  const RendezvousResult res = sim::run_rendezvous(eng, *adv, 1000);
  EXPECT_TRUE(res.met);
  EXPECT_GT(res.cost(), 0u);
  EXPECT_FALSE(res.budget_exhausted);
}

TEST(TwoAgentRendezvous, BudgetExhaustionReported) {
  // Two agents oscillating on disjoint edges of a path never meet.
  Graph g = make_path(4);
  std::vector<Port> osc_a(64, 0);  // 0 <-> 1 (port 0 both ways)
  std::vector<Port> osc_b;         // 3 <-> 2: from 3 port 0, from 2 port 1
  for (int i = 0; i < 32; ++i) {
    osc_b.push_back(0);
    osc_b.push_back(1);
  }
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, osc_a), 0, scripted(g, 3, osc_b), 3);
  auto adv = make_fair_adversary();
  const RendezvousResult res = sim::run_rendezvous(eng, *adv, 40);
  EXPECT_FALSE(res.met);
  EXPECT_TRUE(res.budget_exhausted);
}

TEST(TwoAgentRendezvous, RejectsSameStart) {
  Graph g = make_path(3);
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  EXPECT_THROW(add_pair(eng, scripted(g, 0, {}), 0, scripted(g, 0, {}), 0),
               std::logic_error);
}

TEST(TwoAgentRendezvous, WouldMeetProbe) {
  Graph g = make_edge();
  sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
  add_pair(eng, scripted(g, 0, {0}), 0, scripted(g, 1, {0}), 1);
  eng.advance(1, kEdgeUnits / 2);           // b parked mid-edge
  EXPECT_FALSE(eng.mid_edge(0));
  EXPECT_FALSE(eng.would_meet_within_edge(0, kEdgeUnits));  // a at node: unknown
  eng.advance(0, 1);                        // a enters the edge
  EXPECT_TRUE(eng.would_meet_within_edge(0, kEdgeUnits));
  EXPECT_FALSE(eng.would_meet_within_edge(0, kEdgeUnits / 4));
  EXPECT_FALSE(eng.met()) << "probe must not commit";
}

TEST(TwoAgentRendezvous, Lemma31Property) {
  // Lemma 3.1: if b keeps repeating X(m, v) and a follows one entire
  // X(m, u), the agents meet — for any starts and any of our schedules.
  TrajKit kit(PPoly::tiny(), 0x41);
  Graph g = make_ring(5);
  const std::uint64_t m = 5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto route_a = sim::make_walker_route(
        g, 0, [&](Walker& w) { return follow_X(w, kit, m); });
    auto route_b = sim::make_walker_route(g, 2, [&](Walker& w) -> Generator<Move> {
      // Repeat X(m, v) forever.
      return follow_Omega(w, kit, m);  // Ω is exactly a long X repetition
    });
    sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
    add_pair(eng, route_a, 0, route_b, 2);
    auto adv = make_random_adversary(seed, 500);
    const RendezvousResult res = sim::run_rendezvous(eng, *adv, 2'000'000);
    EXPECT_TRUE(res.met) << "seed " << seed;
  }
}

}  // namespace
}  // namespace asyncrv
