#include "runner/outcome.h"

#include <stdexcept>

#include "runner/registry.h"
#include "rv/baseline.h"
#include "rv/rv_route.h"
#include "search/optimizer.h"
#include "traj/traj.h"

namespace asyncrv::runner {

namespace {

/// The spec's graph: interned through the sweep-wide cache when one is
/// threaded in, a fresh uncached build otherwise. The returned handle owns
/// (or shares) the instance — callers keep it alive for the run's scope.
GraphHandle resolve_graph(const std::string& id, GraphCache* graphs) {
  if (graphs) return graphs->resolve(id);
  return std::make_shared<const Graph>(make_graph(id));
}

void run_rendezvous(const RendezvousSpec& spec, ExperimentOutcome& out,
                    sim::EngineScratch* scratch, GraphCache* graphs) {
  if (spec.labels.size() != 2) {
    throw std::logic_error("rendezvous scenario needs exactly 2 labels");
  }
  const GraphHandle gh = resolve_graph(spec.graph, graphs);
  const Graph& g = *gh;
  // Each scenario owns its kit: LengthCalculus memoizes internally, so
  // sharing one across worker threads would race.
  const TrajKit kit(make_ppoly(spec.ppoly), spec.kit_seed);

  std::vector<Node> starts = spec.starts;
  if (starts.empty()) starts = {0, g.size() - 1};
  if (starts.size() != 2) {
    throw std::logic_error("rendezvous scenario needs exactly 2 starts");
  }

  sim::SimEngine engine(g, sim::MeetingPolicy::Halt, nullptr, scratch);
  for (int i = 0; i < 2; ++i) {
    engine.add_agent({rendezvous_route(g, kit, spec,
                                       starts[static_cast<std::size_t>(i)],
                                       spec.labels[static_cast<std::size_t>(i)]),
                      starts[static_cast<std::size_t>(i)], /*awake=*/true,
                      sim::EndPolicy::Sticky});
  }

  RendezvousOutcome res;
  std::unique_ptr<Adversary> adv = make_adversary(spec.adversary, spec.seed);
  if (spec.record_schedule) {
    adv = std::make_unique<RecordingAdversary>(std::move(adv), &res.schedule);
  }
  res.result = sim::run_rendezvous(engine, *adv, spec.budget);
  out.status = res.result.met ? RunStatus::Ok : RunStatus::Unresolved;
  out.budget_exhausted = res.result.budget_exhausted;
  out.cost = res.result.cost();
  out.result = std::move(res);
}

void run_sgl(const SglSpec& spec, ExperimentOutcome& out,
             sim::EngineScratch* scratch, GraphCache* graphs) {
  const GraphHandle gh = resolve_graph(spec.graph, graphs);
  const Graph& g = *gh;
  const TrajKit kit(make_ppoly(spec.ppoly), spec.kit_seed);
  const std::vector<SglAgentSpec> team = effective_sgl_team(spec);

  SglConfig cfg;
  cfg.robust_phase3 = spec.robust_phase3;
  const SglSolveOutcome solved =
      solve_all_problems(g, kit, cfg, team, spec.budget, spec.seed, scratch);
  SglOutcome res;
  res.run = solved.run;
  res.apps = solved.apps;
  out.status = res.run.completed ? RunStatus::Ok : RunStatus::Unresolved;
  out.budget_exhausted = res.run.budget_exhausted;
  out.cost = res.run.total_traversals;
  out.result = std::move(res);
}

void run_search(const SearchSpec& spec, ExperimentOutcome& out,
                sim::EngineScratch* scratch, GraphCache* graphs) {
  const auto optimizer = search::make_optimizer(spec.optimizer);
  if (!optimizer) {
    throw std::logic_error("unknown search optimizer: " + spec.optimizer);
  }
  if (spec.evaluations == 0) {
    throw std::logic_error("search needs evaluations >= 1");
  }
  if (spec.genome_len == 0 || spec.genome_len > 256) {
    throw std::logic_error("search genome_len must be in [1, 256]");
  }
  const GraphHandle gh = resolve_graph(spec.graph, graphs);
  const Graph& g = *gh;
  const TrajKit kit(make_ppoly(spec.ppoly), spec.kit_seed);
  const search::Problem problem = search_problem(spec, g, kit);

  search::SearchParams params;
  params.evaluations = spec.evaluations;
  params.genome_len = static_cast<std::size_t>(spec.genome_len);
  params.seed = spec.seed;
  const search::SearchResult res = optimizer->run(
      [&problem, scratch](const search::ScheduleGenome& genome) {
        return search::evaluate(problem, genome, scratch);
      },
      params);

  SearchOutcome so;
  so.best_genome = res.best.to_text();
  so.best_score = res.best_eval.score;
  so.best_cost = res.best_eval.cost;
  so.best_phase = res.best_eval.phase;
  so.best_met = res.best_eval.met;
  so.bound = res.best_eval.bound;
  so.violations = res.violations;
  so.best_violation = res.best_eval.violation;
  so.evaluations = res.evaluations;
  so.improvements = res.improvements;
  out.status = RunStatus::Ok;  // the search itself completed
  out.cost = so.best_cost;
  out.result = std::move(so);
}

}  // namespace

sim::MoveSource rendezvous_route(const Graph& g, const TrajKit& kit,
                                 const RendezvousSpec& spec, Node start,
                                 std::uint64_t label) {
  if (spec.algo == RouteAlgo::Baseline) {
    const std::uint64_t n = g.size();
    return sim::make_walker_route(g, start, [&kit, n, label](Walker& w) {
      return baseline_route(w, kit, n, label);
    });
  }
  return sim::make_walker_route(g, start, [&kit, label](Walker& w) {
    return rv_route(w, kit, label, nullptr);
  });
}

std::string ExperimentOutcome::status_label() const {
  if (status == RunStatus::Error) return "error";
  if (status == RunStatus::Ok) return "ok";
  if (const SglOutcome* s = sgl(); s && s->run.stuck) return "stuck";
  if (budget_exhausted) return "budget";
  return "no-meet";
}

search::Problem search_problem(const SearchSpec& spec, const Graph& g,
                               const TrajKit& kit) {
  const auto objective = search::parse_objective(spec.objective);
  if (!objective) {
    throw std::logic_error("unknown search objective: " + spec.objective);
  }
  search::Problem problem;
  problem.graph = &g;
  problem.kit = &kit;
  problem.objective = *objective;
  problem.labels =
      spec.labels.empty() ? std::vector<std::uint64_t>{5, 12} : spec.labels;
  problem.starts =
      spec.starts.empty() ? std::vector<Node>{0, g.size() - 1} : spec.starts;
  problem.budget = spec.budget;
  return problem;
}

std::vector<SglAgentSpec> effective_sgl_team(const SglSpec& spec) {
  std::vector<SglAgentSpec> team = spec.team;
  if (team.empty()) {
    if (spec.labels.size() < 2) {
      throw std::logic_error("SGL scenario needs a team of >= 2 labels");
    }
    for (std::size_t i = 0; i < spec.labels.size(); ++i) {
      SglAgentSpec s;
      s.start = i < spec.starts.size() ? spec.starts[i] : static_cast<Node>(i);
      s.label = spec.labels[i];
      s.value = "val" + std::to_string(s.label);
      team.push_back(s);
    }
  }
  if (team.size() < 2) {
    throw std::logic_error("SGL scenario needs a team of >= 2 agents");
  }
  return team;
}

ExperimentOutcome run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, nullptr, nullptr);
}

ExperimentOutcome run_experiment(const ExperimentSpec& spec,
                                 sim::EngineScratch* scratch) {
  return run_experiment(spec, scratch, nullptr);
}

ExperimentOutcome run_experiment(const ExperimentSpec& spec,
                                 sim::EngineScratch* scratch,
                                 GraphCache* graphs) {
  ExperimentOutcome out;
  try {
    if (const RendezvousSpec* rv = spec.rendezvous()) {
      run_rendezvous(*rv, out, scratch, graphs);
    } else if (const SearchSpec* se = spec.search()) {
      run_search(*se, out, scratch, graphs);
    } else {
      run_sgl(*spec.sgl(), out, scratch, graphs);
    }
  } catch (const std::logic_error& e) {
    // Spec/invariant violations (registry parse errors, ASYNCRV_CHECK):
    // deterministic — the same spec always fails the same way.
    out = ExperimentOutcome{};  // drop any partial result payload
    out.status = RunStatus::Error;
    out.error = e.what();
  } catch (const std::exception& e) {
    // Anything else (bad_alloc, ...) is environmental: a re-run might
    // succeed, so mark the outcome uncacheable.
    out = ExperimentOutcome{};
    out.status = RunStatus::Error;
    out.error = e.what();
    out.transient_error = true;
  }
  return out;
}

}  // namespace asyncrv::runner
