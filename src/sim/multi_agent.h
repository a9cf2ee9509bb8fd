// Multi-agent asynchronous simulator — the substrate of Section 4, as a
// thin adapter over sim::SimEngine (the unified N-agent geometry engine).
//
// k agents move in the same embedded graph under a single adversary that
// advances one agent at a time. Dormant agents are woken either by the
// adversary or by another agent sweeping over their position. Whenever a
// moving agent's sweep touches other agents, a *meeting event* fires for
// the whole co-located group (agents "notice this fact and can exchange all
// previously acquired information"); the mover then continues — meetings
// do not interrupt the walk, matching the paper ("if the meeting is inside
// an edge, they continue the walk ... until reaching the other end").
// The geometry (sweeps, contact ordering, wake-by-visit) is the engine's;
// this adapter binds engine events to the per-agent AgentLogic protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "sim/position.h"
#include "traj/walker.h"

namespace asyncrv {

/// Behavior of one agent, implemented by the SGL state machine (sgl/) or by
/// test doubles. The simulator owns the geometry; the logic owns the route.
class AgentLogic {
 public:
  virtual ~AgentLogic() = default;

  /// Next edge traversal; called only when the agent is awake, at a node,
  /// with no traversal in progress. nullopt = the agent is (currently)
  /// idle; it may be asked again after later events.
  virtual std::optional<Move> next_move() = 0;

  /// Fired for every member of a co-located group (meeting). `others` holds
  /// the simulator indices of the other agents at the same point.
  virtual void on_meeting(const std::vector<int>& others) = 0;

  /// Fired once, when a dormant agent is woken (by the adversary or by a
  /// visiting agent). Precedes the on_meeting of the waking contact.
  virtual void on_wake() {}

  /// True once the agent produced its final output (used for termination).
  virtual bool done() const = 0;
};

class MultiAgentSim final : private sim::EventSink {
 public:
  /// `scratch` optionally shares a reusable engine arena (occupancy index +
  /// sweep buffers) across back-to-back simulations on one thread.
  explicit MultiAgentSim(const Graph& g, sim::EngineScratch* scratch = nullptr)
      : engine_(g, sim::MeetingPolicy::Continue, this, scratch) {}

  /// Registers an agent; returns its index. The logic must outlive the sim.
  int add_agent(AgentLogic* logic, Node start, bool awake);

  /// Advances agent idx by delta > 0 micro-units, firing wake and meeting
  /// events along the way. Returns the number of units actually consumed
  /// (0 if the agent is dormant or idle at a node).
  std::int64_t advance(int idx, std::int64_t delta);

  /// Adversary-initiated wake-up.
  void wake(int idx) { engine_.wake(idx); }

  int agent_count() const { return engine_.agent_count(); }
  Pos position(int idx) const { return engine_.position(idx); }
  bool awake(int idx) const { return engine_.awake(idx); }
  std::uint64_t completed_traversals(int idx) const {
    return engine_.completed_traversals(idx);
  }
  std::uint64_t total_traversals() const { return engine_.total_traversals(); }
  bool all_done() const;
  const Graph& graph() const { return engine_.graph(); }

  /// The underlying unified engine.
  const sim::SimEngine& engine() const { return engine_; }
  sim::SimEngine& engine() { return engine_; }

 private:
  // sim::EventSink — translates engine events into the AgentLogic protocol.
  void on_wake(int agent) override;
  void on_meeting(int mover, const std::vector<int>& others) override;

  sim::SimEngine engine_;
  std::vector<AgentLogic*> logics_;
  // Meeting-dispatch scratch: the whole group, and one member's others.
  std::vector<int> group_;
  std::vector<int> rest_;
};

}  // namespace asyncrv
