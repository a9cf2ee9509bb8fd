#include "search/objective.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "esst/esst.h"
#include "rv/label.h"
#include "rv/pi_bound.h"
#include "rv/rv_route.h"
#include "sim/engine.h"

namespace asyncrv::search {

namespace {

/// 4 steps per traversal + slack, saturating: a wrapped guard would
/// silently truncate every evaluation of a huge-budget spec (the same
/// overflow class run_rendezvous's own 16x guard protects against).
std::uint64_t tight_step_guard(std::uint64_t budget) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  return budget > (kU64Max - 4096) / 4 ? kU64Max : 4 * budget + 4096;
}

/// ESST score: the phase dominates (it is the objective), the explorer's
/// cost breaks plateaus so hill-climbing has a gradient between schedules
/// that stall in the same phase.
std::uint64_t esst_score(std::uint64_t phase, std::uint64_t cost) {
  constexpr std::uint64_t kPhaseWeight = 1'000'000'000'000ULL;
  return phase * kPhaseWeight + (cost < kPhaseWeight ? cost : kPhaseWeight - 1);
}

void require_starts(const std::vector<Node>& starts, const Graph& g) {
  if (starts.size() != 2 || starts[0] == starts[1] || starts[0] >= g.size() ||
      starts[1] >= g.size()) {
    throw std::logic_error("search problem needs 2 distinct in-range starts");
  }
}

void require_pair(const std::vector<std::uint64_t>& labels,
                  const std::vector<Node>& starts, const Graph& g) {
  if (labels.size() != 2) {
    throw std::logic_error("search problem needs exactly 2 labels");
  }
  require_starts(starts, g);
}

Evaluation evaluate_rendezvous(const Problem& p, const ScheduleGenome& genome,
                               sim::EngineScratch* scratch) {
  const Graph& g = *p.graph;
  require_pair(p.labels, p.starts, g);
  const std::uint64_t bound =
      p.objective == Objective::PiMargin
          ? pi_margin_bound(g, p.labels[0], p.labels[1])
          : 0;
  // PiMargin runs are truncated just past the half-margin: a run that gets
  // there without a meeting is already classified (violation) whether a
  // meeting would have followed or not, so simulating the second half of
  // the bound would only make violation-adjacent evaluations slow. The
  // spec budget still applies as a cost ceiling — pi_hat/2 can be millions
  // of traversals, so callers choose between cheap slack measurement
  // (budget < pi_hat/2: violations out of reach by construction) and the
  // full hunt (budget >= pi_hat/2 + 1).
  const std::uint64_t budget =
      p.objective == Objective::PiMargin ? std::min(p.budget, bound / 2 + 1)
                                         : p.budget;

  sim::SimEngine engine(g, sim::MeetingPolicy::Halt, nullptr, scratch);
  for (int i = 0; i < 2; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t label = p.labels[idx];
    engine.add_agent({sim::make_walker_route(g, p.starts[idx],
                                             [&p, label](Walker& w) {
                                               return rv_route(w, *p.kit, label,
                                                               nullptr);
                                             }),
                      p.starts[idx], /*awake=*/true, sim::EndPolicy::Sticky});
  }
  std::unique_ptr<Adversary> adv = decode(genome);
  // Tight anti-livelock guard: a schedule that spends more than ~4 steps
  // per traversal is sliver-spamming, and cutting it short only costs it
  // score — searches evaluate thousands of schedules, so the default
  // 16x guard would dominate wall-clock.
  const RendezvousResult res =
      sim::run_rendezvous(engine, *adv, budget, tight_step_guard(budget));

  Evaluation out;
  out.cost = res.cost();
  out.met = res.met;
  if (p.objective == Objective::PiMargin) {
    out.bound = bound;
    // Soundness contract under test: every meeting's charged cost stays
    // under half of pi_hat. The margin is a bound on COST, so only a run
    // that actually walks past pi_hat/2 breaches it — reaching the
    // truncation point meeting-free is a violation whatever would have
    // followed, while a starved schedule that accumulates little cost has
    // (so far) shown nothing and scores only its cost.
    out.violation = res.cost() > bound / 2;
    out.score = out.violation ? bound + res.cost() : res.cost();
  } else {
    out.score = res.cost();
  }
  return out;
}

/// The token's route: bounce forever along the extended edge
/// {start, succ(start, 0)} — it enters by some port and leaves by that
/// same port, so it never escapes the edge. The adversary controls where
/// inside the edge the token actually is at any time, which is exactly
/// the semi-stationary token model of Section 2.
sim::MoveSource bounce_route(const Graph& g, Node start) {
  struct State {
    Node at;
    Port out;
  };
  auto st = std::make_shared<State>(State{start, 0});
  return [&g, st]() -> std::optional<Move> {
    const Graph::Half h = g.step(st->at, st->out);
    Move m{st->at, h.to, st->out, h.port_at_to};
    st->at = h.to;
    st->out = h.port_at_to;
    return m;
  };
}

/// Sets EsstIo::token_swept on every meeting — with two agents, any
/// meeting is explorer-token contact, whichever of them was moving.
class TokenSightingSink final : public sim::EventSink {
 public:
  explicit TokenSightingSink(EsstIo* io) : io_(io) {}
  void on_meeting(int /*mover*/, const std::vector<int>& /*others*/) override {
    io_->token_swept = true;
  }

 private:
  EsstIo* io_;
};

Evaluation evaluate_esst(const Problem& p, const ScheduleGenome& genome,
                         sim::EngineScratch* scratch) {
  const Graph& g = *p.graph;
  require_starts(p.starts, g);

  EsstIo io;
  EsstResult result;
  TokenSightingSink sink(&io);
  sim::SimEngine engine(g, sim::MeetingPolicy::Continue, &sink, scratch);
  io.token_here = [&engine] {
    return engine.position(0) == engine.position(1);
  };

  // Agent 0: the ESST explorer. Retry policy — the route depends on token
  // sightings (events), so moves must never be pre-pulled (DESIGN.md §5).
  Walker walker(g, p.starts[0]);
  Generator<Move> route = esst_route(walker, *p.kit, io, result);
  engine.add_agent({[&route]() -> std::optional<Move> {
                      if (!route.next()) return std::nullopt;
                      return route.value();
                    },
                    p.starts[0], /*awake=*/true, sim::EndPolicy::Retry});
  // Agent 1: the semi-stationary token, confined to one extended edge.
  engine.add_agent({bounce_route(g, p.starts[1]), p.starts[1], /*awake=*/true,
                    sim::EndPolicy::Sticky});

  std::unique_ptr<Adversary> adv = decode(genome);
  // Anti-livelock guard (same shape as sim::run_rendezvous, tighter
  // factor): a schedule that starves the explorer scores low anyway, so
  // spending 16x budget on it would only slow the search down.
  const std::uint64_t max_steps = tight_step_guard(p.budget);
  std::uint64_t steps = 0;
  while (!result.success && engine.charged_traversals(0) < p.budget &&
         steps++ < max_steps) {
    const AdvStep step = adv->next(engine);
    engine.advance(step.agent, step.delta);
  }

  Evaluation out;
  out.cost = engine.charged_traversals(0);
  out.met = result.success;
  out.phase = result.success ? result.phase : 3 * result.phases_attempted;
  out.bound = 9 * static_cast<std::uint64_t>(g.size()) + 3;
  // Theorem 2.1's upper bracket: a successful phase beyond 9n+3 would
  // falsify the size certificate SGL relies on.
  out.violation = result.success && result.phase > out.bound;
  out.score = esst_score(out.phase, out.cost);
  return out;
}

}  // namespace

std::optional<Objective> parse_objective(const std::string& name) {
  if (name == "rv-cost") return Objective::RvCost;
  if (name == "esst-phase") return Objective::EsstPhase;
  if (name == "pi-margin") return Objective::PiMargin;
  return std::nullopt;
}

std::string objective_name(Objective objective) {
  switch (objective) {
    case Objective::RvCost: return "rv-cost";
    case Objective::EsstPhase: return "esst-phase";
    case Objective::PiMargin: return "pi-margin";
  }
  return "rv-cost";
}

std::vector<std::string> objective_names() {
  return {"rv-cost", "esst-phase", "pi-margin"};
}

std::uint64_t pi_margin_bound(const Graph& g, std::uint64_t label_a,
                              std::uint64_t label_b) {
  const CalibratedPi pi_hat;
  const int m = std::min(label_length(label_a), label_length(label_b));
  return pi_hat(g.size(), static_cast<std::uint64_t>(m));
}

Evaluation evaluate(const Problem& problem, const ScheduleGenome& genome,
                    sim::EngineScratch* scratch) {
  ASYNCRV_CHECK_MSG(problem.graph != nullptr && problem.kit != nullptr,
                    "search problem needs a graph and a kit");
  if (problem.objective == Objective::EsstPhase) {
    return evaluate_esst(problem, genome, scratch);
  }
  return evaluate_rendezvous(problem, genome, scratch);
}

}  // namespace asyncrv::search
