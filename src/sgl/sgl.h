// Algorithm SGL — Strong Global Learning (Section 4).
//
// k > 1 agents with distinct labels run asynchronously in an unknown
// network; at the end every agent outputs the set of labels (and attached
// initial values) of all participating agents, and is *aware* that the set
// is complete. Team size, leader election, perfect renaming and gossiping
// all reduce to SGL (sgl/apps.h).
//
// States (paper, Section 4):
//  * traveller — runs RV-asynch-poly until the first meeting with a
//    non-explorer or with anyone that has heard of a smaller label;
//  * ghost — finishes its current edge and stays idle forever, serving as
//    the (semi-stationary) token of some explorer; outputs once informed
//    that its bag is complete;
//  * explorer — Phase 1: Procedure ESST against its token, learning the
//    size bound t (DESIGN.md §2.3), then its backtrack, both on a walker
//    of their own; Phase 2: resumes its suspended RV route as if it had
//    never been interrupted (DESIGN.md §2.4) until it has made Π̂(t, |L|)
//    RV edge traversals or hears of a smaller label; Phase 3: if a smaller
//    label is known, seeks its token and adopts/ghosts; otherwise (only
//    the globally smallest agent, in a correct run) performs collection
//    and broadcast sweeps X(t, s) = R(t, s) + backtrack and outputs.
//
// Executable-bound substitutions and the robust Phase 3 are documented in
// DESIGN.md §2; Config::robust_phase3 selects between the paper-shaped
// single double-sweep and the self-stabilizing variant.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "esst/esst.h"
#include "rv/pi_bound.h"
#include "rv/rv_route.h"
#include "sim/multi_agent.h"
#include "traj/traj.h"

namespace asyncrv {

/// What every agent accumulates and finally outputs: label -> initial value.
using Bag = std::map<std::uint64_t, std::string>;

enum class SglState { Dormant, Traveller, Explorer, Ghost };

const char* to_string(SglState s);

struct SglConfig {
  CalibratedPi pi_hat;
  bool robust_phase3 = true;
};

/// One state transition of an agent, timestamped by the simulation's total
/// traversal count — the audit trail behind the lifecycle claims of
/// Section 4 (e.g. "the smallest agent never ghosts").
struct SglTransition {
  SglState to = SglState::Dormant;
  std::uint64_t at_total_traversals = 0;
};

struct SglAgentSpec {
  Node start = 0;
  std::uint64_t label = 1;
  std::string value;              ///< initial value (for gossiping)
  bool initially_awake = true;
  /// If not initially awake: adversary wake-up once the run has advanced
  /// this many micro-units in total (0 = only woken by a visiting agent).
  std::uint64_t wake_after_units = 0;
};

class SglRun;

/// One agent of Algorithm SGL. Implements the simulator's AgentLogic; the
/// whole lifecycle (traveller -> explorer/ghost -> output) is a single
/// coroutine reading flags that on_meeting sets.
class SglAgent final : public AgentLogic {
 public:
  SglAgent(SglRun& run, const SglAgentSpec& spec);

  // AgentLogic:
  std::optional<Move> next_move() override;
  void on_meeting(const std::vector<int>& others) override;
  void on_wake() override;
  bool done() const override { return output_.has_value(); }

  std::uint64_t label() const { return label_; }
  SglState state() const { return state_; }
  const Bag& bag() const { return bag_; }
  bool final_known() const { return final_known_; }
  const std::optional<Bag>& output() const { return output_; }
  std::uint64_t rv_steps() const { return rv_steps_; }
  std::uint64_t esst_phase() const { return esst_result_.phase; }
  const std::vector<SglTransition>& transitions() const { return transitions_; }

  void set_sim_index(int idx) { sim_index_ = idx; }

 private:
  Generator<Move> behavior();
  std::uint64_t min_known_label() const { return bag_.begin()->first; }
  bool token_at_my_node() const;
  void maybe_output();
  void set_state(SglState s);

  SglRun* run_;
  int sim_index_ = -1;
  std::uint64_t label_;
  SglState state_ = SglState::Dormant;
  Bag bag_;

  Walker walker_;
  Generator<Move> behavior_;
  bool behavior_started_ = false;
  bool exhausted_ = false;

  // Flags set by on_meeting, consumed by the behavior coroutine between
  // moves (i.e. always at a node, matching "completes the current edge").
  bool pending_ghost_ = false;
  bool pending_explorer_ = false;
  int token_index_ = -1;           ///< sim index of this explorer's token
  bool met_token_ = false;         ///< token contact since last cleared
  bool final_known_ = false;
  std::optional<Bag> output_;

  EsstIo esst_io_;
  bool esst_active_ = false;
  EsstResult esst_result_;
  std::uint64_t rv_steps_ = 0;
  std::vector<SglTransition> transitions_;

  friend class SglRun;
};

struct SglRunResult {
  bool completed = false;             ///< every agent produced an output
  bool budget_exhausted = false;
  bool stuck = false;                 ///< no agent could move, yet not done
  std::vector<Bag> outputs;           ///< per agent (spec order)
  std::vector<SglState> final_states;
  std::uint64_t total_traversals = 0;
  std::vector<std::uint64_t> traversals_per_agent;
};

/// Owns the simulation of one SGL execution.
class SglRun {
 public:
  /// `scratch` optionally shares a reusable simulation-engine arena across
  /// back-to-back runs on one thread (see sim::EngineScratch).
  SglRun(const Graph& g, const TrajKit& kit, SglConfig cfg,
         const std::vector<SglAgentSpec>& specs,
         sim::EngineScratch* scratch = nullptr);

  /// Drives the run under a randomized fair-ish adversary until every agent
  /// outputs, the traversal budget is exhausted, or no progress is possible.
  SglRunResult run(std::uint64_t budget_traversals, std::uint64_t adversary_seed);

  MultiAgentSim& sim() { return sim_; }
  const SglConfig& config() const { return cfg_; }
  const TrajKit& kit() const { return *kit_; }
  SglAgent& agent(int idx) { return *agents_[static_cast<std::size_t>(idx)]; }
  int agent_count() const { return static_cast<int>(agents_.size()); }

 private:
  const Graph* g_;
  const TrajKit* kit_;
  SglConfig cfg_;
  std::vector<SglAgentSpec> specs_;
  std::vector<std::unique_ptr<SglAgent>> agents_;
  MultiAgentSim sim_;
};

}  // namespace asyncrv
