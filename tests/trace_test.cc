// Recording/replay determinism: a replayed schedule reproduces the exact
// outcome, schedules round-trip through text, and trace statistics add up.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "rv/rv_route.h"
#include "traj/traj.h"

namespace asyncrv {
namespace {

TrajKit& kit() {
  static TrajKit k(PPoly::tiny(), 0x5eed0001);
  return k;
}

/// RV with labels 5 and 12 from nodes 0 and 2 on a Halt engine, driven by
/// `adv` through the production run loop.
RendezvousResult run_rv(const Graph& g, Adversary& adv) {
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({sim::make_walker_route(
                        g, 0, [](Walker& w) { return rv_route(w, kit(), 5, nullptr); }),
                    0});
  engine.add_agent({sim::make_walker_route(
                        g, 2, [](Walker& w) { return rv_route(w, kit(), 12, nullptr); }),
                    2});
  return sim::run_rendezvous(engine, adv, 2'000'000);
}

TEST(Trace, RecordedRunSummarizes) {
  Graph g = make_ring(5);
  Schedule sched;
  RecordingAdversary rec(make_oscillating_adversary(3), &sched);
  const TraceStats stats = make_trace_stats(run_rv(g, rec), sched);
  ASSERT_TRUE(stats.result.met);
  EXPECT_EQ(stats.schedule_steps, sched.steps.size());
  EXPECT_EQ(stats.steps_agent_a + stats.steps_agent_b, stats.schedule_steps);
  EXPECT_GT(stats.backward_steps, 0u) << "the oscillator drags agents back";
  EXPECT_NE(stats.summary().find("met at"), std::string::npos);
}

TEST(Trace, ReplayReproducesOutcomeExactly) {
  Graph g = make_ring(5);
  Schedule sched;
  RendezvousResult original;
  {
    RecordingAdversary rec(make_random_adversary(77, 500), &sched);
    original = run_rv(g, rec);
    ASSERT_TRUE(original.met);
  }
  {
    ReplayAdversary replay(sched);
    const RendezvousResult replayed = run_rv(g, replay);
    EXPECT_TRUE(replayed.met);
    EXPECT_EQ(replayed.meeting_point, original.meeting_point);
    EXPECT_EQ(replayed.traversals_a, original.traversals_a);
    EXPECT_EQ(replayed.traversals_b, original.traversals_b);
  }
}

TEST(Trace, ScheduleTextRoundTrip) {
  Schedule s;
  s.steps = {{0, kEdgeUnits}, {1, -42}, {0, 17}};
  const Schedule back = Schedule::from_text(s.to_text());
  ASSERT_EQ(back.steps.size(), s.steps.size());
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    EXPECT_EQ(back.steps[i].agent, s.steps[i].agent);
    EXPECT_EQ(back.steps[i].delta, s.steps[i].delta);
  }
}

TEST(Trace, ScheduleParserRejectsGarbage) {
  EXPECT_THROW(Schedule::from_text("nope"), std::logic_error);
  EXPECT_THROW(Schedule::from_text("asyncrv-schedule v1 2\n0 5\n"),
               std::logic_error);  // truncated
  EXPECT_THROW(Schedule::from_text("asyncrv-schedule v1 1\n7 5\n"),
               std::logic_error);  // bad agent id
}

TEST(Trace, ReplayFallsBackAfterLogEnds) {
  // A truncated schedule must not wedge the simulation: the fallback
  // alternation still drives the agents to the meeting.
  Graph g = make_ring(5);
  Schedule tiny;
  tiny.steps = {{0, kEdgeUnits / 2}};
  ReplayAdversary replay(tiny);
  const RendezvousResult res = run_rv(g, replay);
  EXPECT_TRUE(res.met);
}

}  // namespace
}  // namespace asyncrv
