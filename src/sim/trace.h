// Deterministic recording and replay of adversary schedules.
//
// A RecordingAdversary wraps any strategy and logs every (agent, delta)
// decision; a ReplayAdversary plays a log back verbatim. Together they make
// any simulated run — including a failing one found by a randomized
// schedule — exactly reproducible for debugging, and let tests assert that
// identical schedules produce identical outcomes (the simulator itself is
// deterministic).
//
// TraceStats aggregates a run into the summary the experiment harnesses
// print: per-agent traversal counts, meeting info and schedule shape.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/adversary.h"
#include "sim/engine.h"

namespace asyncrv {

/// A recorded schedule: the exact sequence of adversary decisions.
struct Schedule {
  std::vector<AdvStep> steps;

  std::string to_text() const;
  /// Parses a schedule; agent indices must lie in [0, agent_count).
  static Schedule from_text(const std::string& text, int agent_count = 2);
};

/// Wraps an adversary, recording every decision into `schedule`.
class RecordingAdversary final : public Adversary {
 public:
  RecordingAdversary(std::unique_ptr<Adversary> inner, Schedule* schedule)
      : inner_(std::move(inner)), schedule_(schedule) {}

  AdvStep next(const sim::EngineView& engine) override {
    const AdvStep s = inner_->next(engine);
    schedule_->steps.push_back(s);
    return s;
  }
  std::string name() const override { return inner_->name() + "+rec"; }

 private:
  std::unique_ptr<Adversary> inner_;
  Schedule* schedule_;
};

/// Plays a recorded schedule back verbatim; after the log is exhausted it
/// falls back to strict rotation (so replays of truncated logs still
/// terminate).
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(Schedule schedule) : schedule_(std::move(schedule)) {}

  AdvStep next(const sim::EngineView& engine) override;
  std::string name() const override { return "replay"; }

 private:
  Schedule schedule_;
  std::size_t idx_ = 0;
  int fallback_turn_ = 1;
};

/// Aggregated view of one rendezvous run, for tables and debugging.
struct TraceStats {
  RendezvousResult result;
  std::uint64_t schedule_steps = 0;
  std::uint64_t backward_steps = 0;   ///< in-edge back-draggings
  std::uint64_t steps_agent_a = 0;
  std::uint64_t steps_agent_b = 0;
  std::string summary() const;
};

/// Derives the schedule-shape statistics from a run recorded through a
/// RecordingAdversary (e.g. rv_cli's traced instance).
TraceStats make_trace_stats(const RendezvousResult& result,
                            const Schedule& schedule);

}  // namespace asyncrv
