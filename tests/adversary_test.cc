// Adversary strategies: determinism, legality of the schedules they emit
// (never selecting an exhausted agent while the other can move; backward
// motion only inside an edge), and behavioral signatures (stalling,
// avoiding).
#include "sim/adversary.h"

#include <gtest/gtest.h>

#include <deque>

#include "graph/builders.h"
#include "sim/engine.h"

namespace asyncrv {
namespace {

sim::MoveSource forever_ring(const Graph& g, Node start, Port p) {
  auto node = std::make_shared<Node>(start);
  return [&g, node, p]() -> std::optional<Move> {
    const Graph::Half h = g.step(*node, p);
    Move m{*node, h.to, p, h.port_at_to};
    *node = h.to;
    return m;
  };
}

TEST(Adversary, BatteryNamesMatch) {
  auto battery = adversary_battery(7);
  auto names = adversary_battery_names();
  ASSERT_EQ(battery.size(), names.size());
  for (std::size_t i = 0; i < battery.size(); ++i) {
    EXPECT_FALSE(battery[i]->name().empty());
  }
}

TEST(Adversary, FairAlternates) {
  Graph g = make_ring(4);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 2, 0), 2});
  auto adv = make_fair_adversary();
  int last = -1;
  for (int i = 0; i < 10; ++i) {
    const AdvStep s = adv->next(engine);
    EXPECT_NE(s.agent, last);
    last = s.agent;
    EXPECT_EQ(s.delta, kEdgeUnits);
  }
}

TEST(Adversary, StallFreezesOneAgentInitially) {
  Graph g = make_ring(6);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 3, 0), 3});
  // Threshold 2 keeps the runner away from the stationary agent (walking
  // port 0 from node 3 reaches node 0 only after 3 traversals).
  auto adv = make_stall_adversary(/*stalled_agent=*/0, /*stall_traversals=*/2);
  for (int i = 0; i < 2; ++i) {
    const AdvStep s = adv->next(engine);
    EXPECT_EQ(s.agent, 1) << "agent 0 is stalled";
    engine.advance(s.agent, s.delta);
  }
  ASSERT_FALSE(engine.met());
  // After the runner completed its traversals, both agents get time.
  bool saw_zero = false;
  for (int i = 0; i < 2 && !engine.met(); ++i) {
    const AdvStep s = adv->next(engine);
    saw_zero = saw_zero || (s.agent == 0);
    engine.advance(s.agent, s.delta);
  }
  EXPECT_TRUE(saw_zero);
}

TEST(Adversary, RandomIsDeterministicPerSeed) {
  Graph g = make_ring(4);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 2, 0), 2});
  auto a1 = make_random_adversary(123, 500);
  auto a2 = make_random_adversary(123, 500);
  for (int i = 0; i < 32; ++i) {
    const AdvStep s1 = a1->next(engine);
    const AdvStep s2 = a2->next(engine);
    EXPECT_EQ(s1.agent, s2.agent);
    EXPECT_EQ(s1.delta, s2.delta);
  }
}

TEST(Adversary, BiasedRandomFavorsAgent) {
  Graph g = make_ring(4);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 2, 0), 2});
  auto adv = make_random_adversary(9, 900);
  int zero = 0;
  for (int i = 0; i < 400; ++i) zero += (adv->next(engine).agent == 0);
  EXPECT_GT(zero, 300);
}

TEST(Adversary, OscillatorEmitsBackwardMoves) {
  Graph g = make_ring(8);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 4, 0), 4});
  auto adv = make_oscillating_adversary(5);
  bool backward = false;
  for (int i = 0; i < 300 && !backward; ++i) {
    const AdvStep s = adv->next(engine);
    backward = backward || s.delta < 0;
    engine.advance(s.agent, s.delta);
    if (engine.met()) break;
  }
  EXPECT_TRUE(backward);
}

TEST(Adversary, AvoiderPostponesButCannotPreventForcedMeetings) {
  // Head-on on a single edge: the avoider eventually has no escape.
  Graph g = make_edge();
  std::deque<Port> once{0};
  auto route = [&g](Node start) {
    auto st = std::make_shared<std::pair<Node, int>>(start, 1);
    return sim::MoveSource([&g, st]() -> std::optional<Move> {
      if (st->second == 0) return std::nullopt;
      st->second -= 1;
      const Graph::Half h = g.step(st->first, 0);
      Move m{st->first, h.to, 0, h.port_at_to};
      st->first = h.to;
      return m;
    });
  };
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({route(0), 0});
  engine.add_agent({route(1), 1});
  auto adv = make_avoider_adversary(3);
  const RendezvousResult res = sim::run_rendezvous(engine, *adv, 100);
  EXPECT_TRUE(res.met);
}

TEST(Adversary, PhaseRunsExclusivePhases) {
  Graph g = make_ring(8);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 4, 0), 4});
  auto adv = make_phase_adversary(11, 16);
  // Count agent switches over many steps: phases mean long same-agent runs,
  // so far fewer switches than steps.
  int switches = 0, last = -1, steps = 0;
  for (int i = 0; i < 200 && !engine.met(); ++i) {
    const AdvStep s = adv->next(engine);
    if (last >= 0 && s.agent != last) ++switches;
    last = s.agent;
    ++steps;
    engine.advance(s.agent, s.delta);
  }
  EXPECT_LT(switches, steps / 2);
}

TEST(Adversary, SkewGivesBothAgentsTimeAtDifferentRates) {
  Graph g = make_ring(8);
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({forever_ring(g, 0, 0), 0});
  engine.add_agent({forever_ring(g, 4, 0), 4});
  auto adv = make_skew_adversary(3, 16);
  std::int64_t units[2] = {0, 0};
  for (int i = 0; i < 64 && !engine.met(); ++i) {
    const AdvStep s = adv->next(engine);
    units[s.agent] += s.delta;
    engine.advance(s.agent, s.delta);
  }
  EXPECT_GT(units[0], 0);
  EXPECT_GT(units[1], 0);
  const std::int64_t hi = std::max(units[0], units[1]);
  const std::int64_t lo = std::min(units[0], units[1]);
  EXPECT_GT(hi, 4 * lo) << "one agent must be much faster";
}

TEST(Adversary, AllStrategiesDriveSimsLegally) {
  // Every battery member must produce steps the simulator accepts, for many
  // steps, without meeting-independent crashes.
  Graph g = make_ring(6);
  for (auto& adv : adversary_battery(11)) {
    sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
    engine.add_agent({forever_ring(g, 0, 0), 0});
    engine.add_agent({forever_ring(g, 3, 1), 3});
    for (int i = 0; i < 500 && !engine.met(); ++i) {
      const AdvStep s = adv->next(engine);
      ASSERT_TRUE(s.agent == 0 || s.agent == 1) << adv->name();
      engine.advance(s.agent, s.delta);
    }
  }
}

}  // namespace
}  // namespace asyncrv
