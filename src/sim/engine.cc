#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "sim/adversary.h"

namespace asyncrv::sim {

MoveSource make_walker_route(
    const Graph& g, Node start,
    const std::function<Generator<Move>(Walker&)>& make_gen) {
  auto walker = std::make_shared<Walker>(g, start);
  auto gen = std::make_shared<Generator<Move>>(make_gen(*walker));
  return [walker, gen]() -> std::optional<Move> {
    if (gen->next()) return gen->value();
    return std::nullopt;
  };
}

SimEngine::SimEngine(const Graph& g, MeetingPolicy policy, EventSink* sink,
                     EngineScratch* scratch)
    : g_(&g), policy_(policy), sink_(sink), scratch_(scratch) {
  if (scratch_ == nullptr) {
    owned_scratch_ = std::make_unique<EngineScratch>();
    scratch_ = owned_scratch_.get();
  }
  // (Re)shape the arena for this graph: clear every bucket (stale
  // residents of a previous scenario must never resurface) and grow —
  // never shrink — so a shared arena keeps its high-water buckets across
  // mixed-size scenarios instead of reallocating the tail per run.
  for (auto& b : scratch_->node_residents) b.clear();
  for (auto& b : scratch_->edge_residents) b.clear();
  if (scratch_->node_residents.size() < g.size()) {
    scratch_->node_residents.resize(g.size());
  }
  if (scratch_->edge_residents.size() < g.edge_count()) {
    scratch_->edge_residents.resize(g.edge_count());
  }
  scratch_->contacts.clear();
  scratch_->group.clear();
}

int SimEngine::add_agent(EngineAgentSpec spec) {
  ASYNCRV_CHECK(spec.source != nullptr);
  ASYNCRV_CHECK(spec.start < g_->size());
  for (const AgentState& a : agents_) {
    ASYNCRV_CHECK_MSG(a.at != spec.start || a.cur,
                      "agents start at pairwise different nodes");
  }
  AgentState s;
  s.source = std::move(spec.source);
  s.at = spec.start;
  s.awake = spec.awake;
  s.end_policy = spec.end_policy;
  s.res_on_edge = false;
  s.res_id = spec.start;
  agents_.push_back(std::move(s));
  const int idx = static_cast<int>(agents_.size()) - 1;
  bucket(false, spec.start).push_back(idx);
  return idx;
}

Pos SimEngine::position(int idx) const {
  const AgentState& a = agents_[checked(idx)];
  if (!a.cur) return Pos::at_node(a.at);
  if (a.prog == 0) return Pos::at_node(a.cur->from);
  if (a.prog == kEdgeUnits) return Pos::at_node(a.cur->to);
  return Pos::on_edge(a.cur_eid,
                      canonical_offset(a.cur->from, a.cur->to, a.prog));
}

std::uint64_t SimEngine::charged_traversals(int idx) const {
  const AgentState& a = agents_[checked(idx)];
  return a.completed + ((a.cur && a.prog > 0) ? 1 : 0);
}

std::uint64_t SimEngine::total_traversals() const {
  std::uint64_t t = 0;
  for (int i = 0; i < agent_count(); ++i) t += charged_traversals(i);
  return t;
}

void SimEngine::wake(int idx) {
  AgentState& a = agents_[checked(idx)];
  if (a.awake) return;
  a.awake = true;
  if (sink_ != nullptr) sink_->on_wake(idx);
}

void SimEngine::fire_meeting(int mover, const std::vector<int>& group) {
  ++stat_meetings_;
  // Wake dormant members first (a woken agent participates in the meeting).
  for (int i : group) wake(i);
  if (sink_ != nullptr) sink_->on_meeting(mover, group);
}

void SimEngine::update_residency(int idx) {
  AgentState& a = agents_[static_cast<std::size_t>(idx)];
  bool on_edge = false;
  std::uint32_t id;
  if (!a.cur) {
    id = a.at;
  } else if (a.prog == 0) {
    id = a.cur->from;
  } else if (a.prog == kEdgeUnits) {
    id = a.cur->to;
  } else {
    on_edge = true;
    id = a.cur_eid;
  }
  if (on_edge == a.res_on_edge && id == a.res_id) return;
  std::vector<int>& old_bucket = bucket(a.res_on_edge, a.res_id);
  for (std::size_t i = 0; i < old_bucket.size(); ++i) {
    if (old_bucket[i] == idx) {
      old_bucket[i] = old_bucket.back();
      old_bucket.pop_back();
      break;
    }
  }
  bucket(on_edge, id).push_back(idx);
  a.res_on_edge = on_edge;
  a.res_id = id;
}

void SimEngine::collect_contacts(int idx, std::int64_t from_prog,
                                 std::int64_t to_prog) {
  const AgentState& a = agents_[static_cast<std::size_t>(idx)];
  ASYNCRV_DCHECK(a.cur.has_value());
  const Move& m = *a.cur;
  auto& contacts = scratch_->contacts;
  contacts.clear();
  const std::int64_t lo = from_prog < to_prog ? from_prog : to_prog;
  const std::int64_t hi = from_prog < to_prog ? to_prog : from_prog;
  // A contact needs a position with a progress parameter on this move:
  // the node m.from (progress 0), the node m.to (progress kEdgeUnits), or
  // the interior of this canonical edge. The occupancy buckets of exactly
  // those three places are the complete candidate set — no other agent can
  // be touched, however large N is.
  if (lo == 0) {
    for (int j : scratch_->node_residents[m.from]) {
      if (j != idx) contacts.push_back({0, j});
    }
  }
  if (hi == kEdgeUnits) {
    for (int j : scratch_->node_residents[m.to]) {
      if (j != idx) contacts.push_back({kEdgeUnits, j});
    }
  }
  const bool fwd_edge = m.from < m.to;
  for (int j : scratch_->edge_residents[a.cur_eid]) {
    if (j == idx) continue;
    const AgentState& o = agents_[static_cast<std::size_t>(j)];
    ASYNCRV_DCHECK(o.cur.has_value());
    const std::int64_t off = canonical_offset(o.cur->from, o.cur->to, o.prog);
    const std::int64_t at = fwd_edge ? off : kEdgeUnits - off;
    if (at < lo || at > hi) continue;
    contacts.push_back({at, j});
  }
}

bool SimEngine::process_sweep(int idx, std::int64_t from_prog,
                              std::int64_t to_prog) {
  ++stat_sweeps_;
  AgentState& a = agents_[checked(idx)];

  if (reference_scan_) {
    // Retained pre-index sweep (PR 2, verbatim): O(N) scan and per-sweep
    // vector allocations. The differential oracle for the fuzz test and
    // the honest "before" lane of bench_engine_hot.
    std::vector<std::pair<std::int64_t, int>> contacts;
    for (int j = 0; j < agent_count(); ++j) {
      if (j == idx) continue;
      const auto c =
          sweep_contact(*g_, *a.cur, from_prog, to_prog, position(j));
      if (c) contacts.emplace_back(*c, j);
    }
    if (contacts.empty()) {
      a.prog = to_prog;
      update_residency(idx);
      return false;
    }
    const bool forward = to_prog >= from_prog;
    // Tie-break on the agent index: the pre-index engine collected
    // contacts in index order and relied on small-range std::sort leaving
    // ties in place, which not every standard library guarantees. Making
    // the tie order explicit pins the oracle (and the historical event
    // order) on any stdlib.
    std::sort(contacts.begin(), contacts.end(),
              [forward](const auto& x, const auto& y) {
                if (x.first != y.first) {
                  return forward ? x.first < y.first : x.first > y.first;
                }
                return x.second < y.second;
              });
    if (policy_ == MeetingPolicy::Halt) {
      const std::int64_t cp = contacts.front().first;
      meeting_ = position(contacts.front().second);
      a.prog = cp;
      update_residency(idx);
      met_ = true;
      std::vector<int> group;
      for (const auto& [p, j] : contacts) {
        if (p == cp) group.push_back(j);
      }
      fire_meeting(idx, group);
      return true;
    }
    a.prog = to_prog;
    update_residency(idx);
    std::size_t i = 0;
    while (i < contacts.size()) {
      std::size_t j = i;
      std::vector<int> group;
      while (j < contacts.size() && contacts[j].first == contacts[i].first) {
        group.push_back(contacts[j].second);
        ++j;
      }
      fire_meeting(idx, group);
      i = j;
    }
    return false;
  }

  collect_contacts(idx, from_prog, to_prog);
  auto& contacts = scratch_->contacts;
  if (contacts.empty()) {
    // Fast-forward: the agent is provably alone on the swept interval, so
    // the whole sweep is one O(1) progress assignment.
    a.prog = to_prog;
    update_residency(idx);
    return false;
  }
  const bool forward = to_prog >= from_prog;
  // Ties break on the agent index: bucket iteration order is arbitrary
  // (swap-erase perturbs it), and the pre-index engine visited co-located
  // agents in index order — sorting on (progress, agent) reproduces its
  // event order exactly.
  std::sort(contacts.begin(), contacts.end(),
            [forward](const EngineScratch::Contact& x,
                      const EngineScratch::Contact& y) {
              if (x.at != y.at) return forward ? x.at < y.at : x.at > y.at;
              return x.agent < y.agent;
            });

  if (policy_ == MeetingPolicy::Halt) {
    // The first contact ends the run: stop exactly there.
    const std::int64_t cp = contacts.front().at;
    meeting_ = position(contacts.front().agent);
    a.prog = cp;
    update_residency(idx);
    met_ = true;
    auto& group = scratch_->group;
    group.clear();
    for (const EngineScratch::Contact& c : contacts) {
      if (c.at == cp) group.push_back(c.agent);
    }
    fire_meeting(idx, group);
    return true;
  }

  // Continue policy: the mover finishes the sweep; every distinct contact
  // point yields one grouped meeting event, in sweep order.
  a.prog = to_prog;
  update_residency(idx);
  std::size_t i = 0;
  while (i < contacts.size()) {
    std::size_t j = i;
    auto& group = scratch_->group;
    group.clear();
    while (j < contacts.size() && contacts[j].at == contacts[i].at) {
      group.push_back(contacts[j].agent);
      ++j;
    }
    fire_meeting(idx, group);
    i = j;
  }
  return false;
}

std::optional<Move> SimEngine::pull_move(AgentState& a) {
  // Retry sources (the SGL model) may depend on events that have not
  // happened yet — never pre-pull them.
  if (a.end_policy == EndPolicy::Retry) return a.source();
  if (a.ring_count == 0) {
    if (a.source_done) return std::nullopt;
    a.ring_head = 0;
    const int want = a.ring_fill;
    for (int i = 0; i < want; ++i) {
      auto m = a.source();
      if (!m) {
        a.source_done = true;
        break;
      }
      a.ring[a.ring_count++] = *m;
    }
    if (a.ring_fill < kRingCap) {
      a.ring_fill = static_cast<std::uint8_t>(
          std::min<int>(a.ring_fill * 2, kRingCap));
    }
    if (a.ring_count == 0) return std::nullopt;
  }
  Move m = a.ring[a.ring_head];
  ++a.ring_head;
  --a.ring_count;
  return m;
}

std::int64_t SimEngine::advance(int idx, std::int64_t delta) {
  AgentState& a = agents_[checked(idx)];
  if (met_ && policy_ == MeetingPolicy::Halt) return 0;
  if (!a.awake) return 0;

  if (delta < 0) {
    // Backward motion is confined to the current edge.
    if (!a.cur) return 0;
    std::int64_t target = a.prog + delta;
    if (target < 0) target = 0;
    const std::int64_t from = a.prog;
    process_sweep(idx, from, target);
    return from - a.prog;
  }

  std::int64_t consumed = 0;
  while (delta > 0) {
    if (!a.cur) {
      if (a.ended) break;
      auto m = pull_move(a);
      if (!m) {
        if (a.end_policy == EndPolicy::Sticky) a.ended = true;
        break;
      }
      ASYNCRV_CHECK_MSG(m->from == a.at, "route move must start at current node");
      a.cur = *m;
      a.cur_eid = g_->edge_id(m->from, m->port_out);
      a.prog = 0;
      // Leaving a node: co-location at the node itself counts as a meeting
      // and is caught by the sweep below (progress interval includes 0).
      // The position — and hence the residency bucket — is unchanged.
    }
    const std::int64_t room = kEdgeUnits - a.prog;
    const std::int64_t step = delta < room ? delta : room;
    const std::int64_t from = a.prog;
    const bool halted = process_sweep(idx, from, from + step);
    consumed += a.prog - from;
    if (halted) break;
    delta -= step;
    if (a.prog == kEdgeUnits) {
      ++a.completed;
      a.at = a.cur->to;
      a.cur.reset();
      a.prog = 0;
      // The sweep already parked the residency at the arrival node; the
      // reset does not move the position.
      ASYNCRV_DCHECK(!a.res_on_edge && a.res_id == a.at);
    }
  }
  return consumed;
}

bool SimEngine::would_meet_within_edge(int idx, std::int64_t delta) const {
  const AgentState& a = agents_[checked(idx)];
  if (!a.cur || delta <= 0) return false;
  std::int64_t target = a.prog + delta;
  if (target > kEdgeUnits) target = kEdgeUnits;

  if (reference_scan_) {
    for (int j = 0; j < agent_count(); ++j) {
      if (j == idx) continue;
      if (sweep_contact(*g_, *a.cur, a.prog, target, position(j))) return true;
    }
    return false;
  }

  const Move& m = *a.cur;
  const std::int64_t lo = a.prog;
  const std::int64_t hi = target;
  if (lo == 0) {
    for (int j : scratch_->node_residents[m.from]) {
      if (j != idx) return true;
    }
  }
  if (hi == kEdgeUnits) {
    for (int j : scratch_->node_residents[m.to]) {
      if (j != idx) return true;
    }
  }
  const bool fwd_edge = m.from < m.to;
  for (int j : scratch_->edge_residents[a.cur_eid]) {
    if (j == idx) continue;
    const AgentState& o = agents_[static_cast<std::size_t>(j)];
    const std::int64_t off = canonical_offset(o.cur->from, o.cur->to, o.prog);
    const std::int64_t at = fwd_edge ? off : kEdgeUnits - off;
    if (at >= lo && at <= hi) return true;
  }
  return false;
}

RendezvousResult run_rendezvous(SimEngine& engine, Adversary& adv,
                                std::uint64_t max_total_traversals,
                                std::uint64_t max_steps) {
  RendezvousResult res;
  // Guards against adversaries that stop making progress (e.g. endlessly
  // oscillating): the walk in each edge must eventually cover all of it.
  // Saturating: 16 * budget + 2^20 must never wrap for huge budgets (a
  // wrapped guard could spuriously exhaust a practically-unbounded run).
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kSlack = std::uint64_t{1} << 20;
  if (max_steps == 0) {
    max_steps = max_total_traversals > (kU64Max - kSlack) / 16
                    ? kU64Max
                    : 16 * max_total_traversals + kSlack;
  }
  std::uint64_t steps = 0;
  while (!engine.met()) {
    if (engine.charged_traversals(0) + engine.charged_traversals(1) >=
            max_total_traversals ||
        ++steps > max_steps) {
      res.budget_exhausted = true;
      break;
    }
    bool all_ended = true;
    for (int i = 0; i < engine.agent_count() && all_ended; ++i) {
      all_ended = engine.route_ended(i);
    }
    if (all_ended) break;  // everyone stopped, no meeting
    const AdvStep step = adv.next(engine);
    ASYNCRV_CHECK(step.agent >= 0 && step.agent < engine.agent_count());
    engine.advance(step.agent, step.delta);
  }
  res.met = engine.met();
  res.meeting_point = engine.meeting_point();
  res.traversals_a = engine.charged_traversals(0);
  res.traversals_b = engine.charged_traversals(1);

  // Flush this run's tallies into the process registry in one burst — a
  // handful of relaxed adds per RUN, never per step, so the ~13ns/item
  // inner loop (bench_engine_hot) stays untouched.
  {
    struct Instruments {
      obs::Counter& runs = obs::metrics().counter("engine.runs");
      obs::Counter& steps = obs::metrics().counter("engine.steps");
      obs::Counter& sweeps = obs::metrics().counter("engine.sweeps");
      obs::Counter& meetings = obs::metrics().counter("engine.meetings");
      obs::Counter& traversals = obs::metrics().counter("engine.traversals");
    };
    static Instruments& in = *new Instruments();
    in.runs.add(1);
    in.steps.add(steps);
    in.sweeps.add(engine.sweep_count());
    in.meetings.add(engine.meeting_count());
    in.traversals.add(res.traversals_a + res.traversals_b);
  }
  return res;
}

}  // namespace asyncrv::sim
