// The search subsystem's unit layer: genome serialization round-trips,
// mutation invariants, optimizer determinism, objective evaluation — and
// the load-bearing replay property: a decoded genome drives the engine to
// identical events on the indexed hot path and the reference scan
// (DESIGN.md §6 / §5).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "graph/builders.h"
#include "rv/label.h"
#include "rv/pi_bound.h"
#include "rv/rv_route.h"
#include "search/genome.h"
#include "search/objective.h"
#include "search/optimizer.h"
#include "sim/trace.h"
#include "sim/engine.h"
#include "traj/traj.h"
#include "util/prng.h"

namespace asyncrv {
namespace {

bool gene_valid(const search::Gene& g) {
  return g.delta != 0 && g.delta >= -kEdgeUnits && g.delta <= kEdgeUnits &&
         g.repeat >= 1;
}

TEST(Genome, TextRoundTripsExactly) {
  Rng rng(0xf00d);
  for (int i = 0; i < 200; ++i) {
    const search::ScheduleGenome genome =
        search::random_genome(rng, 1 + rng.below(40));
    const auto back = search::ScheduleGenome::from_text(genome.to_text());
    ASSERT_TRUE(back.has_value()) << genome.to_text();
    EXPECT_TRUE(genome == *back) << genome.to_text();
  }
}

TEST(Genome, FromTextRejectsMalformedPrograms) {
  const auto bad = [](const std::string& text) {
    return !search::ScheduleGenome::from_text(text).has_value();
  };
  EXPECT_TRUE(bad(""));
  EXPECT_TRUE(bad("0:0:1"));            // zero delta
  EXPECT_TRUE(bad("0:5"));              // missing repeat
  EXPECT_TRUE(bad("0:5:1:9"));          // extra field
  EXPECT_TRUE(bad("0:5:0"));            // zero repeat
  EXPECT_TRUE(bad("x:5:1"));            // non-numeric agent
  EXPECT_TRUE(bad("300:5:1"));          // agent > 255
  EXPECT_TRUE(bad("0:1048577:1"));      // |delta| > kEdgeUnits
  EXPECT_TRUE(bad("0:-1048577:1"));
  EXPECT_TRUE(bad("0:5:1,"));           // trailing comma
  EXPECT_TRUE(bad(",0:5:1"));
  EXPECT_TRUE(bad("0:5:70000"));        // repeat > uint16
  // Valid forms, for contrast.
  EXPECT_FALSE(bad("0:5:1"));
  EXPECT_FALSE(bad("1:-5:3,0:1048576:65535"));
}

TEST(Genome, MutationPreservesInvariants) {
  Rng rng(0x5eed);
  search::ScheduleGenome genome = search::random_genome(rng, 8);
  for (int i = 0; i < 2000; ++i) {
    search::mutate(genome, rng);
    ASSERT_GE(genome.genes.size(), 1u) << "mutation " << i;
    ASSERT_LE(genome.genes.size(), 256u) << "mutation " << i;
    for (const search::Gene& g : genome.genes) {
      ASSERT_TRUE(gene_valid(g)) << "mutation " << i;
    }
    // The mutated program still survives a serialization round trip.
    if (i % 100 == 0) {
      const auto back = search::ScheduleGenome::from_text(genome.to_text());
      ASSERT_TRUE(back.has_value());
      ASSERT_TRUE(genome == *back);
    }
  }
}

TEST(Genome, DecodeRejectsInvalidPrograms) {
  EXPECT_THROW(search::decode(search::ScheduleGenome{}), std::logic_error);
  search::ScheduleGenome zero_delta;
  zero_delta.genes.push_back({0, 0, 1});
  EXPECT_THROW(search::decode(zero_delta), std::logic_error);
}

// --- replay identity ---------------------------------------------------------

TrajKit& kit() {
  static TrajKit k(PPoly::tiny(), 0x5eed0001);
  return k;
}

struct HaltRun {
  RendezvousResult result;
  Schedule schedule;  ///< the decisions the genome actually produced
};

HaltRun run_halt(const Graph& g, const search::ScheduleGenome& genome,
                 bool reference_scan) {
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.set_reference_scan(reference_scan);
  const Node sb = g.size() - 1;
  engine.add_agent({sim::make_walker_route(
                        g, 0, [](Walker& w) { return rv_route(w, kit(), 5, nullptr); }),
                    0, true, sim::EndPolicy::Sticky});
  engine.add_agent({sim::make_walker_route(
                        g, sb, [](Walker& w) { return rv_route(w, kit(), 12, nullptr); }),
                    sb, true, sim::EndPolicy::Sticky});
  HaltRun run;
  RecordingAdversary rec(search::decode(genome), &run.schedule);
  run.result = sim::run_rendezvous(engine, rec, 30'000, 4 * 30'000 + 4096);
  return run;
}

TEST(GenomeReplay, HaltPathsAndSerializationAgreeEventForEvent) {
  Rng rng(0xabcde);
  const std::vector<Graph> graphs = {make_ring(8), make_petersen(),
                                     make_grid(3, 3)};
  for (int i = 0; i < 12; ++i) {
    const search::ScheduleGenome genome =
        search::random_genome(rng, 1 + rng.below(24));
    // Serialize -> deserialize -> replay must equal the original replay,
    // on both sweep paths.
    const auto back = search::ScheduleGenome::from_text(genome.to_text());
    ASSERT_TRUE(back.has_value());
    for (const Graph& g : graphs) {
      const HaltRun indexed = run_halt(g, genome, /*reference_scan=*/false);
      const HaltRun reference = run_halt(g, *back, /*reference_scan=*/true);
      ASSERT_EQ(indexed.result.met, reference.result.met) << i;
      EXPECT_TRUE(indexed.result.meeting_point == reference.result.meeting_point)
          << i;
      EXPECT_EQ(indexed.result.traversals_a, reference.result.traversals_a) << i;
      EXPECT_EQ(indexed.result.traversals_b, reference.result.traversals_b) << i;
      EXPECT_EQ(indexed.result.budget_exhausted, reference.result.budget_exhausted)
          << i;
      // The decision streams — not just the outcomes — are identical.
      ASSERT_EQ(indexed.schedule.steps.size(), reference.schedule.steps.size())
          << i;
      for (std::size_t s = 0; s < indexed.schedule.steps.size(); ++s) {
        ASSERT_EQ(indexed.schedule.steps[s].agent,
                  reference.schedule.steps[s].agent)
            << i << " step " << s;
        ASSERT_EQ(indexed.schedule.steps[s].delta,
                  reference.schedule.steps[s].delta)
            << i << " step " << s;
      }
    }
  }
}

/// Records every engine event as a text line, for exact comparison.
class EventLog final : public sim::EventSink {
 public:
  void on_wake(int agent) override {
    log_ << "wake " << agent << '\n';
  }
  void on_meeting(int mover, const std::vector<int>& others) override {
    log_ << "meet " << mover << " {";
    for (const int o : others) log_ << ' ' << o;
    log_ << " }\n";
  }
  std::string text() const { return log_.str(); }

 private:
  std::ostringstream log_;
};

/// An endless seeded random walk (engine-fuzz style Continue route).
sim::MoveSource random_walk(const Graph& g, Node start, std::uint64_t seed) {
  struct State {
    Node at;
    Rng rng;
  };
  auto st = std::make_shared<State>(State{start, Rng(seed)});
  return [&g, st]() -> std::optional<Move> {
    const Port p = static_cast<Port>(
        st->rng.below(static_cast<std::uint64_t>(g.degree(st->at))));
    const Graph::Half h = g.step(st->at, p);
    Move m{st->at, h.to, p, h.port_at_to};
    st->at = h.to;
    return m;
  };
}

std::string run_continue(const Graph& g, const search::ScheduleGenome& genome,
                         bool reference_scan) {
  EventLog log;
  sim::SimEngine engine(g, sim::MeetingPolicy::Continue, &log);
  engine.set_reference_scan(reference_scan);
  for (int a = 0; a < 3; ++a) {
    const Node start =
        static_cast<Node>((static_cast<std::uint64_t>(a) * g.size()) / 3);
    engine.add_agent({random_walk(g, start, 0xbeef + static_cast<std::uint64_t>(a)),
                      start, /*awake=*/a != 2, sim::EndPolicy::Retry});
  }
  std::unique_ptr<Adversary> adv = search::decode(genome);
  std::ostringstream trace;
  for (int step = 0; step < 4000; ++step) {
    const AdvStep s = adv->next(engine);
    engine.advance(s.agent, s.delta);
  }
  for (int a = 0; a < 3; ++a) {
    trace << "agent " << a << " at " << engine.position(a).str() << " walked "
          << engine.completed_traversals(a) << " awake " << engine.awake(a)
          << '\n';
  }
  return log.text() + trace.str();
}

TEST(GenomeReplay, ContinuePathsAgreeOnEveryEvent) {
  Rng rng(0x77777);
  const Graph g = make_ring(9);
  for (int i = 0; i < 8; ++i) {
    const search::ScheduleGenome genome =
        search::random_genome(rng, 1 + rng.below(16));
    const std::string indexed = run_continue(g, genome, false);
    const std::string reference = run_continue(g, genome, true);
    EXPECT_EQ(indexed, reference) << "genome " << genome.to_text();
  }
}

// --- objectives --------------------------------------------------------------

search::Problem problem_on(const Graph& g, search::Objective objective,
                           std::uint64_t budget = 20'000) {
  search::Problem p;
  p.graph = &g;
  p.kit = &kit();
  p.objective = objective;
  p.labels = {5, 12};
  p.starts = {0, g.size() - 1};
  p.budget = budget;
  return p;
}

TEST(Objective, NamesRoundTrip) {
  for (const std::string& name : search::objective_names()) {
    const auto parsed = search::parse_objective(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(search::objective_name(*parsed), name);
  }
  EXPECT_FALSE(search::parse_objective("gremlin").has_value());
}

TEST(Objective, RvCostEvaluationIsDeterministic) {
  const Graph g = make_ring(6);
  Rng rng(1);
  const search::ScheduleGenome genome = search::random_genome(rng, 8);
  const search::Problem p = problem_on(g, search::Objective::RvCost);
  sim::EngineScratch scratch;
  const search::Evaluation a = search::evaluate(p, genome, nullptr);
  const search::Evaluation b = search::evaluate(p, genome, &scratch);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.met, b.met);
  EXPECT_EQ(a.score, a.cost);  // RvCost score IS the charged cost
  EXPECT_FALSE(a.violation);
  EXPECT_EQ(a.bound, 0u);
}

TEST(Objective, PiMarginBoundMatchesCalibration) {
  const Graph g = make_ring(6);
  // pi_hat(n, m) with m = min label length, the rv_integration_test bound.
  const auto m = static_cast<std::uint64_t>(
      std::min(label_length(5), label_length(12)));
  EXPECT_EQ(search::pi_margin_bound(g, 5, 12), CalibratedPi{}(g.size(), m));
  const search::Problem p = problem_on(g, search::Objective::PiMargin);
  Rng rng(2);
  const search::Evaluation e =
      search::evaluate(p, search::random_genome(rng, 4), nullptr);
  EXPECT_EQ(e.bound, search::pi_margin_bound(g, 5, 12));
  // The calibration holds on this certified instance: meeting well within
  // half the bound, no violation.
  EXPECT_TRUE(e.met);
  EXPECT_FALSE(e.violation);
  EXPECT_LE(e.cost, e.bound / 2);
}

TEST(Objective, EsstEvaluationReportsPhaseAndBracket) {
  const Graph g = make_ring(5);
  const search::Problem p =
      problem_on(g, search::Objective::EsstPhase, /*budget=*/200'000);
  // The fair-rotation genome: both agents advance a full edge in turn.
  constexpr auto kFullEdge = static_cast<std::int32_t>(kEdgeUnits);
  search::ScheduleGenome fair;
  fair.genes.push_back({0, kFullEdge, 1});
  fair.genes.push_back({1, kFullEdge, 1});
  const search::Evaluation e = search::evaluate(p, fair, nullptr);
  EXPECT_GT(e.phase, 0u);
  EXPECT_EQ(e.bound, 9u * g.size() + 3u);
  if (e.met) {
    // Theorem 2.1 bracket: n < t <= 9n+3.
    EXPECT_GT(e.phase, g.size());
    EXPECT_LE(e.phase, e.bound);
    EXPECT_FALSE(e.violation);
  }
}

TEST(Objective, MalformedProblemsThrow) {
  const Graph g = make_ring(6);
  Rng rng(3);
  const search::ScheduleGenome genome = search::random_genome(rng, 4);
  search::Problem p = problem_on(g, search::Objective::RvCost);
  p.labels = {5};
  EXPECT_THROW(search::evaluate(p, genome, nullptr), std::logic_error);
  p = problem_on(g, search::Objective::RvCost);
  p.starts = {0, 0};
  EXPECT_THROW(search::evaluate(p, genome, nullptr), std::logic_error);
  p = problem_on(g, search::Objective::EsstPhase);
  p.starts = {0, 99};
  EXPECT_THROW(search::evaluate(p, genome, nullptr), std::logic_error);
}

// --- optimizers --------------------------------------------------------------

TEST(Optimizer, KnownNamesOnly) {
  for (const std::string& name : search::optimizer_names()) {
    EXPECT_NE(search::make_optimizer(name), nullptr) << name;
  }
  EXPECT_EQ(search::make_optimizer("gradient-descent"), nullptr);
}

TEST(Optimizer, DeterministicAndBudgetExact) {
  const Graph g = make_ring(6);
  const search::Problem p = problem_on(g, search::Objective::RvCost);
  sim::EngineScratch scratch;
  const search::EvalFn eval = [&](const search::ScheduleGenome& genome) {
    return search::evaluate(p, genome, &scratch);
  };
  search::SearchParams params;
  params.evaluations = 60;
  params.genome_len = 8;
  params.seed = 0xd15ea5e;
  for (const std::string& name : search::optimizer_names()) {
    const auto opt = search::make_optimizer(name);
    const search::SearchResult a = opt->run(eval, params);
    const search::SearchResult b = search::make_optimizer(name)->run(eval, params);
    EXPECT_EQ(a.evaluations, params.evaluations) << name;
    EXPECT_EQ(b.evaluations, params.evaluations) << name;
    EXPECT_EQ(a.best.to_text(), b.best.to_text()) << name;
    EXPECT_EQ(a.best_eval.score, b.best_eval.score) << name;
    EXPECT_EQ(a.improvements, b.improvements) << name;
    EXPECT_EQ(a.violations, b.violations) << name;
    // The reported winner really reproduces its reported score.
    EXPECT_EQ(eval(a.best).score, a.best_eval.score) << name;
  }
}

TEST(Optimizer, HillClimbNeverLosesToItsOwnStream) {
  // The best score is monotone in the evaluation budget for a fixed seed:
  // a longer run of the same deterministic stream can only improve.
  const Graph g = make_petersen();
  const search::Problem p = problem_on(g, search::Objective::RvCost);
  sim::EngineScratch scratch;
  const search::EvalFn eval = [&](const search::ScheduleGenome& genome) {
    return search::evaluate(p, genome, &scratch);
  };
  search::SearchParams params;
  params.genome_len = 8;
  params.seed = 99;
  std::uint64_t prev = 0;
  for (const std::uint64_t evals : {20, 60, 120}) {
    params.evaluations = evals;
    const search::SearchResult res =
        search::make_optimizer("hill")->run(eval, params);
    EXPECT_GE(res.best_eval.score, prev) << evals;
    prev = res.best_eval.score;
  }
}

}  // namespace
}  // namespace asyncrv
