#include "sim/multi_agent.h"

#include <algorithm>

namespace asyncrv {

int MultiAgentSim::add_agent(AgentLogic* logic, Node start, bool awake) {
  ASYNCRV_CHECK(logic != nullptr);
  sim::EngineAgentSpec spec;
  spec.source = [logic]() { return logic->next_move(); };
  spec.start = start;
  spec.awake = awake;
  spec.end_policy = sim::EndPolicy::Retry;
  const int idx = engine_.add_agent(std::move(spec));
  logics_.push_back(logic);
  return idx;
}

std::int64_t MultiAgentSim::advance(int idx, std::int64_t delta) {
  ASYNCRV_CHECK(idx >= 0 && idx < agent_count());
  ASYNCRV_CHECK(delta > 0);
  return engine_.advance(idx, delta);
}

bool MultiAgentSim::all_done() const {
  return std::all_of(logics_.begin(), logics_.end(),
                     [](const AgentLogic* l) { return l->done(); });
}

void MultiAgentSim::on_wake(int agent) {
  logics_[static_cast<std::size_t>(agent)]->on_wake();
}

void MultiAgentSim::on_meeting(int mover, const std::vector<int>& others) {
  // Every member of the co-located group, mover included, learns of the
  // other members present at the point. Both lists reuse member scratch,
  // so dispatch allocates nothing once they have grown to the largest
  // group (AgentLogic::on_meeting must not re-enter advance).
  group_.assign(others.begin(), others.end());
  group_.push_back(mover);
  for (int self : group_) {
    rest_.clear();
    for (int i : group_) {
      if (i != self) rest_.push_back(i);
    }
    logics_[static_cast<std::size_t>(self)]->on_meeting(rest_);
  }
}

}  // namespace asyncrv
