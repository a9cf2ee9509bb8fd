#include "sim/trace.h"

#include <sstream>

#include "sim/batch_engine.h"  // inline EngineView accessor definitions
#include "util/check.h"

namespace asyncrv {

std::string Schedule::to_text() const {
  std::ostringstream os;
  os << "asyncrv-schedule v1 " << steps.size() << "\n";
  for (const AdvStep& s : steps) os << s.agent << " " << s.delta << "\n";
  return os.str();
}

Schedule Schedule::from_text(const std::string& text, int agent_count) {
  std::istringstream in(text);
  std::string magic1, magic2;
  std::size_t count = 0;
  in >> magic1 >> magic2 >> count;
  ASYNCRV_CHECK_MSG(magic1 == "asyncrv-schedule" && magic2 == "v1",
                    "bad schedule header");
  Schedule sched;
  sched.steps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AdvStep s;
    ASYNCRV_CHECK_MSG(static_cast<bool>(in >> s.agent >> s.delta),
                      "truncated schedule");
    ASYNCRV_CHECK(s.agent >= 0 && s.agent < agent_count);
    sched.steps.push_back(s);
  }
  return sched;
}

AdvStep ReplayAdversary::next(const sim::EngineView& engine) {
  if (idx_ < schedule_.steps.size()) return schedule_.steps[idx_++];
  fallback_turn_ = (fallback_turn_ + 1) % engine.agent_count();
  return {first_movable(engine, fallback_turn_), kEdgeUnits};
}

std::string TraceStats::summary() const {
  std::ostringstream os;
  os << (result.met ? "met at " + result.meeting_point.str() : "no meeting")
     << ", cost " << result.cost() << " (a: " << result.traversals_a
     << ", b: " << result.traversals_b << "), " << schedule_steps
     << " adversary steps (" << steps_agent_a << "/" << steps_agent_b
     << " a/b, " << backward_steps << " backward)";
  return os.str();
}

TraceStats make_trace_stats(const RendezvousResult& result,
                            const Schedule& schedule) {
  TraceStats stats;
  stats.result = result;
  stats.schedule_steps = schedule.steps.size();
  for (const AdvStep& s : schedule.steps) {
    if (s.delta < 0) ++stats.backward_steps;
    if (s.agent == 0) {
      ++stats.steps_agent_a;
    } else {
      ++stats.steps_agent_b;
    }
  }
  return stats;
}

}  // namespace asyncrv
