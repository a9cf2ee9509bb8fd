// Adversary strategies for the asynchronous model.
//
// The adversary fully controls the agents' walks along their (self-chosen)
// routes: relative speeds, stalls, bursts and back-and-forth motion inside
// an edge. A rendezvous algorithm must force a meeting against *any*
// schedule; the strategies here form the ablation battery of experiment E9
// and the failure-injection arm of the test suite.
//
// Strategies consume a sim::EngineView — a cheap concrete handle over
// either a whole sim::SimEngine or one lane of a sim::BatchEngine — and
// generalize to any number of agents (AdvStep is an agent index + a signed
// micro-unit delta), so the same battery drives two-agent rendezvous runs,
// k-agent engines and batched lockstep lanes alike. A SimEngine converts
// to the view implicitly: callers write `adv.next(engine)`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/prng.h"

namespace asyncrv {

namespace sim {
class SimEngine;
class BatchEngine;

/// The read-only engine surface an adversary consults to pick its next
/// step: a non-owning view of one simulated scenario — a scalar SimEngine,
/// or a single lane of a BatchEngine. Concrete (one predictable branch per
/// accessor, no virtual dispatch) so the scalar hot path keeps its inlined
/// queries. Implicit from SimEngine, so `adv.next(engine)` reads as before.
class EngineView {
 public:
  /* implicit */ EngineView(const SimEngine& engine) : engine_(&engine) {}
  EngineView(const BatchEngine& batch, int lane)
      : batch_(&batch), lane_(lane) {}

  int agent_count() const;
  bool awake(int idx) const;
  bool route_ended(int idx) const;
  bool mid_edge(int idx) const;
  std::uint64_t completed_traversals(int idx) const;
  std::uint64_t charged_traversals(int idx) const;
  bool would_meet_within_edge(int idx, std::int64_t delta) const;

 private:
  const SimEngine* engine_ = nullptr;
  const BatchEngine* batch_ = nullptr;
  int lane_ = 0;
};
}  // namespace sim

struct AdvStep {
  int agent = 0;
  std::int64_t delta = 0;
};

class Adversary {
 public:
  virtual ~Adversary() = default;
  /// The next scheduling decision against any engine view with N >= 2
  /// agents (a SimEngine converts implicitly).
  virtual AdvStep next(const sim::EngineView& engine) = 0;
  virtual std::string name() const = 0;
};

/// The first agent, scanning cyclically from `preferred`, whose route has
/// not ended (falls back to `preferred` when every route is over). The
/// "don't waste a step on a stopped agent" helper shared by the battery.
int first_movable(const sim::EngineView& engine, int preferred);

/// Strict rotation (alternation for N = 2), full-edge quanta — the
/// "synchronous" schedule.
std::unique_ptr<Adversary> make_fair_adversary();

/// Random agent (optionally biased towards agent 0), random fraction of an
/// edge per step.
std::unique_ptr<Adversary> make_random_adversary(std::uint64_t seed,
                                                 int bias_permille = 500);

/// One agent is frozen until every other agent has completed
/// `stall_traversals` edge traversals; then strict rotation. Models a
/// maximally lopsided schedule (the extreme the paper's synchronization
/// machinery must beat).
std::unique_ptr<Adversary> make_stall_adversary(int stalled_agent,
                                                std::uint64_t stall_traversals);

/// Random multi-edge bursts: one agent sprints while the others wait.
std::unique_ptr<Adversary> make_burst_adversary(std::uint64_t seed,
                                                int max_burst_edges = 8);

/// Mostly fair, but frequently drags an agent backwards inside its current
/// edge before letting it continue — exercises non-monotone walks.
std::unique_ptr<Adversary> make_oscillating_adversary(std::uint64_t seed);

/// Greedy meeting-avoider: prefers advancing an agent whose next quantum
/// does not create a contact; when every option contacts, it concedes with
/// the smallest possible motion. The strongest schedule in the battery.
std::unique_ptr<Adversary> make_avoider_adversary(std::uint64_t seed);

/// Phase-locked schedule: long exclusive phases per agent with random
/// phase lengths — the pattern behind the paper's "different starting
/// times" discussion (one agent may be deep into its route before the
/// others move at all).
std::unique_ptr<Adversary> make_phase_adversary(std::uint64_t seed,
                                                std::uint64_t max_phase_edges = 64);

/// Speed-skew: every agent always moves, but one at a full edge per turn
/// and the rest at a tiny fraction, with the fast role rotating at random
/// intervals.
std::unique_ptr<Adversary> make_skew_adversary(std::uint64_t seed, int ratio = 16);

/// The whole battery, for parameterized sweeps.
std::vector<std::unique_ptr<Adversary>> adversary_battery(std::uint64_t seed);
std::vector<std::string> adversary_battery_names();

}  // namespace asyncrv
