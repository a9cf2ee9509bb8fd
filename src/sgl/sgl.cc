#include "sgl/sgl.h"

#include <algorithm>

#include "rv/label.h"
#include "util/prng.h"

namespace asyncrv {

const char* to_string(SglState s) {
  switch (s) {
    case SglState::Dormant:
      return "dormant";
    case SglState::Traveller:
      return "traveller";
    case SglState::Explorer:
      return "explorer";
    case SglState::Ghost:
      return "ghost";
  }
  return "?";
}

SglAgent::SglAgent(SglRun& run, const SglAgentSpec& spec)
    : run_(&run), label_(spec.label), walker_(run.sim().graph(), spec.start) {
  bag_[label_] = spec.value;
  if (spec.initially_awake) set_state(SglState::Traveller);
}

void SglAgent::set_state(SglState s) {
  state_ = s;
  transitions_.push_back(SglTransition{
      s, sim_index_ >= 0 ? run_->sim().total_traversals() : 0});
}

bool SglAgent::token_at_my_node() const {
  if (token_index_ < 0) return false;
  return run_->sim().position(token_index_) == run_->sim().position(sim_index_);
}

void SglAgent::maybe_output() {
  if (final_known_ && !output_) output_ = bag_;
}

void SglAgent::on_wake() {
  if (state_ == SglState::Dormant) set_state(SglState::Traveller);
}

void SglAgent::on_meeting(const std::vector<int>& others) {
  // Exchange: union the bags of everyone present, propagate completeness.
  bool any_final = final_known_;
  for (int i : others) {
    const SglAgent& o = run_->agent(i);
    for (const auto& [lab, val] : o.bag()) bag_[lab] = val;
    any_final = any_final || o.final_known();
  }
  if (any_final) final_known_ = true;

  if (state_ == SglState::Traveller && !pending_ghost_ && !pending_explorer_) {
    // Rule 1: someone here has heard of a label smaller than mine -> ghost.
    // (Post-union evaluation is equivalent: my own label is not smaller
    // than itself, and every strictly smaller value came from the others.)
    if (min_known_label() < label_) {
      pending_ghost_ = true;
    } else {
      // Rule 2: a non-explorer is present -> become explorer; the smallest
      // non-explorer becomes my token (and transits to ghost, which its own
      // Rule 1 also mandates — see the consistency argument in DESIGN.md).
      int token = -1;
      std::uint64_t token_label = 0;
      for (int i : others) {
        const SglAgent& o = run_->agent(i);
        if (o.state() == SglState::Explorer) continue;
        if (token < 0 || o.label() < token_label) {
          token = i;
          token_label = o.label();
        }
      }
      if (token >= 0) {
        pending_explorer_ = true;
        token_index_ = token;
        run_->agent(token).pending_ghost_ = true;
      }
    }
  }

  // Token contact flag for ESST sightings and the Phase-3 seek.
  if (token_index_ >= 0 &&
      std::find(others.begin(), others.end(), token_index_) != others.end()) {
    met_token_ = true;
    if (esst_active_) esst_io_.token_swept = true;
  }

  maybe_output();
}

std::optional<Move> SglAgent::next_move() {
  if (state_ == SglState::Dormant || exhausted_) return std::nullopt;
  if (!behavior_started_) {
    behavior_ = behavior();
    behavior_started_ = true;
  }
  if (behavior_.next()) return behavior_.value();
  exhausted_ = true;
  return std::nullopt;
}

Generator<Move> SglAgent::behavior() {
  const SglConfig& cfg = run_->config();
  const TrajKit& kit = run_->kit();

  // ---------------- State traveller ----------------
  // The RV route generator stays alive (suspended) across the explorer
  // transition so Phase 2 can resume it mid-route, as the paper requires.
  RvProgress rv_prog;
  auto rv = rv_route(walker_, kit, label_, &rv_prog);

  while (!pending_ghost_ && !pending_explorer_) {
    if (!rv.next()) break;  // unreachable: the RV route is infinite
    ++rv_steps_;
    co_yield rv.value();
    // Meetings during that traversal have been processed at this point.
  }
  if (pending_ghost_) {
    set_state(SglState::Ghost);
    maybe_output();
    co_return;  // idle forever; on_meeting keeps handling exchanges
  }

  // ---------------- State explorer ----------------
  set_state(SglState::Explorer);

  // Phase 1: ESST against the token, then its backtrack, on a walker of
  // their own: the suspended RV route's trails never see the detour, so
  // Phase 2 resumes RV as if it had never been interrupted (DESIGN.md §2.4).
  esst_io_.token_here = [this] { return token_at_my_node(); };
  {
    Walker detour(walker_.graph(), walker_.node());
    Trail phase1_trail;
    {
      TrailScope scope(detour, phase1_trail);
      esst_active_ = true;
      auto esst = esst_route(detour, kit, esst_io_, esst_result_);
      while (esst.next()) co_yield esst.value();
      esst_active_ = false;
    }
    auto back = follow_reverse(detour, phase1_trail);
    while (back.next()) co_yield back.value();
    ASYNCRV_CHECK(detour.node() == walker_.node());
  }
  const std::uint64_t t_bound = esst_result_.phase;  // certified: n < t

  // Phase 2: resume the RV route until the agent has made pi_hat(t, |L|) RV
  // traversals in total, or a smaller label is known.
  const std::uint64_t rv_limit =
      cfg.pi_hat(t_bound, static_cast<std::uint64_t>(label_length(label_)));
  while (rv_steps_ < rv_limit && min_known_label() >= label_) {
    if (!rv.next()) break;
    ++rv_steps_;
    co_yield rv.value();
  }
  rv = {};  // RV is over: unregister its open trails from walker_

  // Phase 3.
  while (true) {
    if (min_known_label() < label_) {
      // Seek my token by repeating R(t, s); the token is stationary and
      // R(t, ·) is integral (t > n), so contact is guaranteed per sweep.
      met_token_ = false;
      while (true) {
        auto r = follow_R(walker_, kit, t_bound);
        while (r.next() && !met_token_) co_yield r.value();
        if (met_token_) break;
      }
      if (run_->agent(token_index_).final_known()) {
        final_known_ = true;  // (on_meeting has already merged the full bag)
        maybe_output();
      } else {
        set_state(SglState::Ghost);
        maybe_output();
      }
      co_return;
    }

    // Collection double-sweep X(t, s) = R(t, s) + backtrack.
    const Bag before = bag_;
    {
      auto x = follow_X(walker_, kit, t_bound);
      while (x.next()) co_yield x.value();
    }
    if (min_known_label() < label_) continue;  // robust demotion
    if (cfg.robust_phase3 && bag_ != before) continue;  // still learning

    // My bag is (believed) complete: broadcast it with one more
    // double-sweep, then output.
    final_known_ = true;
    maybe_output();
    {
      auto x = follow_X(walker_, kit, t_bound);
      while (x.next()) co_yield x.value();
    }
    if (!cfg.robust_phase3) co_return;
    // Robust mode: keep sweeping until every agent has output, so that
    // late ghosts (explorers that demote after this point) are informed.
    while (!run_->sim().all_done()) {
      auto x = follow_X(walker_, kit, t_bound);
      while (x.next()) co_yield x.value();
    }
    co_return;
  }
}

SglRun::SglRun(const Graph& g, const TrajKit& kit, SglConfig cfg,
               const std::vector<SglAgentSpec>& specs,
               sim::EngineScratch* scratch)
    : g_(&g), kit_(&kit), cfg_(cfg), specs_(specs), sim_(g, scratch) {
  ASYNCRV_CHECK_MSG(specs.size() >= 2, "SGL requires a team of size k > 1");
  for (const SglAgentSpec& spec : specs) {
    ASYNCRV_CHECK(spec.label >= 1);
    agents_.push_back(std::make_unique<SglAgent>(*this, spec));
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const int idx = sim_.add_agent(agents_[i].get(), specs[i].start,
                                   specs[i].initially_awake);
    agents_[i]->set_sim_index(idx);
  }
}

SglRunResult SglRun::run(std::uint64_t budget_traversals, std::uint64_t adversary_seed) {
  Rng rng(adversary_seed);
  SglRunResult res;
  std::uint64_t units_total = 0;
  const int n_agents = agent_count();
  int consecutive_idle = 0;

  while (true) {
    if (sim_.all_done()) {
      res.completed = true;
      break;
    }
    if (sim_.total_traversals() >= budget_traversals) {
      res.budget_exhausted = true;
      break;
    }
    // Adversary-scheduled wake-ups.
    for (int i = 0; i < n_agents; ++i) {
      const SglAgentSpec& spec = specs_[static_cast<std::size_t>(i)];
      if (!spec.initially_awake && spec.wake_after_units > 0 &&
          units_total >= spec.wake_after_units && !sim_.awake(i)) {
        sim_.wake(i);
      }
    }
    // Pick a random awake agent and advance it by a random quantum.
    const int idx = static_cast<int>(rng.below(static_cast<std::uint64_t>(n_agents)));
    if (!sim_.awake(idx)) {
      ++consecutive_idle;
    } else {
      const auto quantum = static_cast<std::int64_t>(
          rng.between(kEdgeUnits / 2, 4 * kEdgeUnits));
      const std::int64_t used = sim_.advance(idx, quantum);
      units_total += static_cast<std::uint64_t>(used);
      consecutive_idle = used == 0 ? consecutive_idle + 1 : 0;
    }
    if (consecutive_idle > 64 * n_agents + 1024) {
      // Nothing can move (and pending wake-ups, if any, need more units):
      // force pending wake-ups once, then declare the run stuck.
      bool woke = false;
      for (int i = 0; i < n_agents; ++i) {
        const SglAgentSpec& spec = specs_[static_cast<std::size_t>(i)];
        if (!spec.initially_awake && spec.wake_after_units > 0 && !sim_.awake(i)) {
          sim_.wake(i);
          woke = true;
        }
      }
      if (!woke) {
        res.stuck = true;
        break;
      }
      consecutive_idle = 0;
    }
  }

  res.total_traversals = sim_.total_traversals();
  for (int i = 0; i < n_agents; ++i) {
    SglAgent& a = *agents_[static_cast<std::size_t>(i)];
    res.outputs.push_back(a.output().value_or(Bag{}));
    res.final_states.push_back(a.state());
    res.traversals_per_agent.push_back(sim_.completed_traversals(i));
  }
  return res;
}

}  // namespace asyncrv
