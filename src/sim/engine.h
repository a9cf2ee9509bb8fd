// The unified event-driven simulation engine.
//
// SimEngine owns the *geometry* of an asynchronous execution for N >= 2
// agents in one embedded graph: exact positions (micro-unit resolution),
// sweeps, co-location / meeting detection, dormancy and wake events. It is
// the single implementation behind both of the paper's models:
//
//  * the two-agent asynchronous rendezvous of Section 3 (a 2-agent
//    Halt-policy engine with Sticky routes, driven by run_rendezvous), and
//  * the k-agent SGL substrate of Section 4 (MultiAgentSim is a thin
//    adapter over a Continue-policy engine that forwards events to the
//    per-agent AgentLogic).
//
// Routes are supplied lazily: a MoveSource pulls one edge traversal at a
// time (typically a suspended trajectory coroutine), so the engine never
// materializes the astronomically long routes of the paper. Adversary
// strategies (sim/adversary.h) drive any engine, regardless of N.
//
// Hot-path architecture (DESIGN.md §5): the engine maintains an
// edge-occupancy index — for every canonical edge the agents currently in
// its interior, and for every node the agents currently at it — so a sweep
// consults only the agents that can possibly be contacted (the sweep's own
// edge and its two endpoints) instead of scanning all N. The per-sweep
// contact scratch and the meeting-group buffer live in an EngineScratch
// arena and are reused, so the steady state allocates nothing; Sticky
// routes are pulled through a small ring buffer that batches coroutine
// resumes. The pre-index naive scan is retained (set_reference_scan) as
// the differential-testing oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/position.h"
#include "traj/gen.h"
#include "traj/walker.h"
#include "util/inline_vec.h"

namespace asyncrv {

struct RendezvousResult {
  bool met = false;
  Pos meeting_point;
  std::uint64_t traversals_a = 0;  ///< completed + the in-progress one
  std::uint64_t traversals_b = 0;
  std::uint64_t cost() const { return traversals_a + traversals_b; }
  bool budget_exhausted = false;
};

class Adversary;  // see sim/adversary.h

namespace sim {

/// Lazily pulls the next edge traversal of an agent's route. nullopt means
/// "no move available"; what that implies depends on the agent's EndPolicy.
using MoveSource = std::function<std::optional<Move>()>;

/// Builds a MoveSource from a walker-driven trajectory generator starting at
/// `start`. The walker and the generator live inside the returned function;
/// the factory receives the walker so the caller can build any trajectory.
MoveSource make_walker_route(
    const Graph& g, Node start,
    const std::function<Generator<Move>(Walker&)>& make_gen);

/// What a nullopt pull means for an agent.
///  * Sticky: the route is over for good (the rendezvous model — the agent
///    stops and stays put, like the baseline algorithm's agents).
///  * Retry: the agent is merely idle right now and may produce a move
///    after later events (the SGL model — e.g. a ghost waking up).
enum class EndPolicy { Sticky, Retry };

/// What happens when a sweep touches another agent.
///  * Halt: the first contact ends the simulation — the mover stops at the
///    exact contact point (the two-agent rendezvous model).
///  * Continue: a meeting event fires for the co-located group and the
///    mover keeps walking, exactly as in the paper's Section 4 model ("if
///    the meeting is inside an edge, they continue the walk ... until
///    reaching the other end").
enum class MeetingPolicy { Halt, Continue };

/// Receives the engine's events. Geometry stays in the engine; what a wake
/// or a meeting *means* is the adapter's business (e.g. MultiAgentSim
/// distributes a group meeting to every member's AgentLogic).
///
/// Event handlers must not re-enter advance()/wake() on the delivering
/// engine: the event references the engine's reusable sweep scratch.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// A dormant agent was woken (by wake() or by a sweeping visitor). Fires
  /// before the on_meeting of the waking contact, if any.
  virtual void on_wake(int /*agent*/) {}
  /// Agent `mover` swept over the co-located group `others` (simulator
  /// indices, never containing `mover`), all at the same point.
  virtual void on_meeting(int /*mover*/, const std::vector<int>& /*others*/) {}
};

/// Registration record for one agent.
struct EngineAgentSpec {
  MoveSource source;
  Node start = 0;
  bool awake = true;
  EndPolicy end_policy = EndPolicy::Sticky;
};

/// Reusable per-engine working memory: the occupancy index buckets (sized
/// for the engine's graph) and the per-sweep contact / meeting-group
/// scratch. An engine owns a private arena by default; batch executors
/// (runner::ExperimentPipeline) pass one arena per worker thread so
/// back-to-back scenarios reuse the grown buffers instead of reallocating
/// the index for every run. Not movable — create in place and reuse.
struct EngineScratch {
  struct Contact {
    std::int64_t at = 0;  ///< progress parameter on the sweeping move
    int agent = -1;
  };

  EngineScratch() = default;
  EngineScratch(const EngineScratch&) = delete;
  EngineScratch& operator=(const EngineScratch&) = delete;

  std::vector<std::vector<int>> node_residents;  ///< node -> agents at it
  std::vector<std::vector<int>> edge_residents;  ///< eid -> agents inside it
  InlineVec<Contact, 8> contacts;                ///< per-sweep contact list
  std::vector<int> group;                        ///< per-event meeting group
};

class SimEngine {
 public:
  explicit SimEngine(const Graph& g, MeetingPolicy policy,
                     EventSink* sink = nullptr, EngineScratch* scratch = nullptr);

  /// Registers an agent; returns its index. Starts must be pairwise
  /// distinct nodes (co-located starts would be an instant meeting).
  int add_agent(EngineAgentSpec spec);

  /// Advances agent idx by |delta| micro-units (forwards if delta > 0,
  /// backwards within the current edge if delta < 0), pulling route moves
  /// as edges complete and firing wake / meeting events along the way.
  /// Returns the number of units actually walked — less than |delta| when
  /// the agent is dormant, idle, out of route, or (Halt policy) stopped at
  /// a contact point.
  std::int64_t advance(int idx, std::int64_t delta);

  /// Adversary-initiated wake-up. No-op on an awake agent.
  void wake(int idx);

  /// Would advancing (without committing) contact another agent within the
  /// remainder of the current edge? False when the agent is at a node
  /// (peeking would require consuming the route).
  bool would_meet_within_edge(int idx, std::int64_t delta) const;

  int agent_count() const { return static_cast<int>(agents_.size()); }
  Pos position(int idx) const;
  bool awake(int idx) const { return agents_[checked(idx)].awake; }
  bool route_ended(int idx) const {
    const AgentState& a = agents_[checked(idx)];
    return a.ended && !a.cur;
  }
  bool mid_edge(int idx) const { return agents_[checked(idx)].cur.has_value(); }
  std::uint64_t completed_traversals(int idx) const {
    return agents_[checked(idx)].completed;
  }
  /// The in-progress traversal is charged once any part of it was walked.
  std::uint64_t charged_traversals(int idx) const;
  std::uint64_t total_traversals() const;

  bool met() const { return met_; }
  Pos meeting_point() const { return meeting_; }
  const Graph& graph() const { return *g_; }

  /// Sweeps processed / meeting events fired over this engine's lifetime —
  /// plain per-engine tallies (no atomics on the hot path); run loops
  /// flush them into the obs::MetricsRegistry once per run.
  std::uint64_t sweep_count() const { return stat_sweeps_; }
  std::uint64_t meeting_count() const { return stat_meetings_; }

  /// Switches sweeps (and would_meet_within_edge) to the retained naive
  /// all-agents scan instead of the occupancy index — the differential
  /// oracle for tests/engine_fuzz_test.cc. Results must be identical
  /// event-for-event; only the constant factor differs.
  void set_reference_scan(bool on) { reference_scan_ = on; }

 private:
  /// Sticky routes are pulled through a small ring that batches coroutine
  /// resumes; the fill size ramps 1 -> 2 -> 4 -> 8 so short runs never
  /// generate route ahead of what they consume.
  static constexpr int kRingCap = 8;

  struct AgentState {
    MoveSource source;
    std::optional<Move> cur;
    std::int64_t prog = 0;  // progress along cur, in [0, kEdgeUnits]
    Node at = 0;            // valid when !cur
    std::uint32_t cur_eid = 0;  // canonical edge id of cur, valid when cur
    std::uint64_t completed = 0;
    bool awake = true;
    bool ended = false;
    EndPolicy end_policy = EndPolicy::Sticky;
    // Occupancy-index residency: the bucket this agent currently lives in.
    bool res_on_edge = false;
    std::uint32_t res_id = 0;  // node id or canonical edge id
    // Batched move-pull ring (Sticky agents only).
    Move ring[kRingCap];
    std::uint8_t ring_head = 0;
    std::uint8_t ring_count = 0;
    std::uint8_t ring_fill = 1;  // next refill size, ramps up to kRingCap
    bool source_done = false;
  };

  std::size_t checked(int idx) const {
    ASYNCRV_DCHECK(idx >= 0 && idx < agent_count());
    return static_cast<std::size_t>(idx);
  }

  /// Moves agent idx from from_prog to to_prog along its current edge,
  /// firing events for every distinct contact point in sweep order.
  /// Returns true if the engine halted at a contact (Halt policy).
  bool process_sweep(int idx, std::int64_t from_prog, std::int64_t to_prog);

  /// Fills scratch.contacts with every (progress, agent) contact of the
  /// sweep, consulting only the occupancy buckets of the sweep's edge and
  /// its two endpoint nodes — the complete candidate set, whatever N is.
  void collect_contacts(int idx, std::int64_t from_prog, std::int64_t to_prog);

  /// Recomputes agent idx's occupancy bucket from its position and moves it
  /// between buckets if it changed. O(bucket size) = O(co-located agents).
  void update_residency(int idx);

  /// Next route move of agent a: straight from the source for Retry agents
  /// (their sources may depend on events), through the batching ring for
  /// Sticky agents (their routes are fixed sequences, safe to pre-pull).
  std::optional<Move> pull_move(AgentState& a);

  /// Wakes the group's dormant members, then fires one meeting event.
  void fire_meeting(int mover, const std::vector<int>& group_at_point);

  std::vector<int>& bucket(bool on_edge, std::uint32_t id) {
    return on_edge ? scratch_->edge_residents[id] : scratch_->node_residents[id];
  }

  const Graph* g_;
  MeetingPolicy policy_;
  EventSink* sink_;
  EngineScratch* scratch_;                      // the arena in use
  std::unique_ptr<EngineScratch> owned_scratch_;  // set when none was passed
  std::vector<AgentState> agents_;
  bool met_ = false;
  bool reference_scan_ = false;
  Pos meeting_;
  std::uint64_t stat_sweeps_ = 0;
  std::uint64_t stat_meetings_ = 0;
};

/// Drives a Halt-policy engine with the adversary until a meeting, until
/// every route has ended, or until the combined charged-traversal budget of
/// agents 0 and 1 is exhausted — the one run loop of every rendezvous run
/// (scenario cells, search evaluations, tools and tests). (RendezvousResult
/// reports agents 0 and 1; extra agents, if any, still participate in
/// meeting detection.)
///
/// `max_steps` bounds the number of adversary decisions (anti-livelock:
/// endless zero-progress oscillation must terminate as budget_exhausted);
/// 0 keeps the historical generous guard of 16 * budget + 2^20. Callers
/// that evaluate many adversarial schedules (search/) pass a tighter
/// guard so sliver-spamming schedules fail fast.
RendezvousResult run_rendezvous(SimEngine& engine, Adversary& adv,
                                std::uint64_t max_total_traversals,
                                std::uint64_t max_steps = 0);

}  // namespace sim
}  // namespace asyncrv
