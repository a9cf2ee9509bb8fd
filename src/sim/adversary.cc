#include "sim/adversary.h"

#include "sim/batch_engine.h"  // inline EngineView accessor definitions
#include "sim/engine.h"

namespace asyncrv {

int first_movable(const sim::EngineView& engine, int preferred) {
  const int n = engine.agent_count();
  for (int i = 0; i < n; ++i) {
    const int agent = (preferred + i) % n;
    if (!engine.route_ended(agent)) return agent;
  }
  return preferred;
}

namespace {

class FairAdversary final : public Adversary {
 public:
  AdvStep next(const sim::EngineView& engine) override {
    turn_ = (turn_ + 1) % engine.agent_count();
    return {first_movable(engine, turn_), kEdgeUnits};
  }
  std::string name() const override { return "fair"; }

 private:
  int turn_ = 1;
};

class RandomAdversary final : public Adversary {
 public:
  RandomAdversary(std::uint64_t seed, int bias_permille)
      : rng_(seed), bias_(bias_permille) {}

  AdvStep next(const sim::EngineView& engine) override {
    const int n = engine.agent_count();
    int agent = 0;
    if (!rng_.chance(static_cast<std::uint64_t>(bias_), 1000)) {
      // The unbiased share is split uniformly over the other agents.
      agent = n == 2 ? 1
                     : 1 + static_cast<int>(
                               rng_.below(static_cast<std::uint64_t>(n - 1)));
    }
    const auto delta = static_cast<std::int64_t>(rng_.between(1, kEdgeUnits));
    return {first_movable(engine, agent), delta};
  }
  std::string name() const override { return "random"; }

 private:
  Rng rng_;
  int bias_;
};

class StallAdversary final : public Adversary {
 public:
  StallAdversary(int stalled, std::uint64_t stall_traversals)
      : stalled_(stalled), threshold_(stall_traversals) {}

  AdvStep next(const sim::EngineView& engine) override {
    const int n = engine.agent_count();
    ASYNCRV_CHECK_MSG(stalled_ >= 0 && stalled_ < n,
                      "stalled agent index out of range");
    // Rotate over the runners (everyone but the stalled agent) until each
    // has reached the threshold; only then does the stalled agent get time.
    for (int i = 1; i <= n; ++i) {
      const int runner = (last_runner_ + i) % n;
      if (runner == stalled_) continue;
      if (engine.completed_traversals(runner) < threshold_ &&
          !engine.route_ended(runner)) {
        last_runner_ = runner;
        return {runner, kEdgeUnits};
      }
    }
    turn_ = (turn_ + 1) % n;
    return {first_movable(engine, turn_), kEdgeUnits};
  }
  std::string name() const override { return "stall"; }

 private:
  int stalled_;
  std::uint64_t threshold_;
  int last_runner_ = 0;
  int turn_ = 1;
};

class BurstAdversary final : public Adversary {
 public:
  BurstAdversary(std::uint64_t seed, int max_burst) : rng_(seed), max_burst_(max_burst) {}

  AdvStep next(const sim::EngineView& engine) override {
    if (remaining_ == 0) {
      agent_ = static_cast<int>(
          rng_.below(static_cast<std::uint64_t>(engine.agent_count())));
      remaining_ = rng_.between(1, static_cast<std::uint64_t>(max_burst_));
    }
    --remaining_;
    return {first_movable(engine, agent_), kEdgeUnits};
  }
  std::string name() const override { return "burst"; }

 private:
  Rng rng_;
  int max_burst_;
  int agent_ = 0;
  std::uint64_t remaining_ = 0;
};

class OscillatingAdversary final : public Adversary {
 public:
  explicit OscillatingAdversary(std::uint64_t seed) : rng_(seed) {}

  AdvStep next(const sim::EngineView& engine) override {
    turn_ = (turn_ + 1) % engine.agent_count();
    const int agent = first_movable(engine, turn_);
    if (engine.mid_edge(agent) && rng_.chance(1, 3)) {
      // Drag the agent backwards a random distance inside its edge; the
      // forward motion on a later turn re-covers the interval.
      return {agent, -static_cast<std::int64_t>(rng_.between(1, kEdgeUnits / 2))};
    }
    return {agent, static_cast<std::int64_t>(rng_.between(kEdgeUnits / 2, kEdgeUnits))};
  }
  std::string name() const override { return "oscillating"; }

 private:
  Rng rng_;
  int turn_ = 1;
};

class AvoiderAdversary final : public Adversary {
 public:
  explicit AvoiderAdversary(std::uint64_t seed) : rng_(seed) {}

  AdvStep next(const sim::EngineView& engine) override {
    const int n = engine.agent_count();
    const auto quantum = static_cast<std::int64_t>(rng_.between(kEdgeUnits / 4, kEdgeUnits));
    const int first = static_cast<int>(rng_.below(static_cast<std::uint64_t>(n)));
    for (int i = 0; i < n; ++i) {
      const int agent = (first + i) % n;
      if (engine.route_ended(agent)) continue;
      if (!engine.would_meet_within_edge(agent, quantum)) return {agent, quantum};
    }
    // Every option contacts (or an agent must leave a node, which cannot be
    // peeked): concede with the smallest motion of the first movable agent.
    return {first_movable(engine, first), 1};
  }
  std::string name() const override { return "avoider"; }

 private:
  Rng rng_;
};

class PhaseAdversary final : public Adversary {
 public:
  PhaseAdversary(std::uint64_t seed, std::uint64_t max_phase)
      : rng_(seed), max_phase_(max_phase) {}

  AdvStep next(const sim::EngineView& engine) override {
    if (remaining_ == 0) {
      agent_ = (agent_ + 1) % engine.agent_count();
      remaining_ = rng_.between(1, max_phase_);
    }
    --remaining_;
    return {first_movable(engine, agent_), kEdgeUnits};
  }
  std::string name() const override { return "phase"; }

 private:
  Rng rng_;
  std::uint64_t max_phase_;
  int agent_ = 1;
  std::uint64_t remaining_ = 0;
};

class SkewAdversary final : public Adversary {
 public:
  SkewAdversary(std::uint64_t seed, int ratio) : rng_(seed), ratio_(ratio) {}

  AdvStep next(const sim::EngineView& engine) override {
    const int n = engine.agent_count();
    if (until_swap_ == 0) {
      fast_ = (fast_ + 1) % n;
      until_swap_ = rng_.between(32, 256);
    }
    --until_swap_;
    // The fast agent gets a full edge; the slow ones a sliver, interleaved.
    turn_ = (turn_ + 1) % n;
    const int agent = (fast_ + turn_) % n;
    const std::int64_t delta = agent == fast_ ? kEdgeUnits : kEdgeUnits / ratio_;
    return {first_movable(engine, agent), delta};
  }
  std::string name() const override { return "skew"; }

 private:
  Rng rng_;
  int ratio_;
  int fast_ = 0;
  int turn_ = 1;
  std::uint64_t until_swap_ = 0;
};

}  // namespace

std::unique_ptr<Adversary> make_fair_adversary() {
  return std::make_unique<FairAdversary>();
}
std::unique_ptr<Adversary> make_random_adversary(std::uint64_t seed, int bias_permille) {
  return std::make_unique<RandomAdversary>(seed, bias_permille);
}
std::unique_ptr<Adversary> make_stall_adversary(int stalled_agent,
                                                std::uint64_t stall_traversals) {
  return std::make_unique<StallAdversary>(stalled_agent, stall_traversals);
}
std::unique_ptr<Adversary> make_burst_adversary(std::uint64_t seed, int max_burst_edges) {
  return std::make_unique<BurstAdversary>(seed, max_burst_edges);
}
std::unique_ptr<Adversary> make_oscillating_adversary(std::uint64_t seed) {
  return std::make_unique<OscillatingAdversary>(seed);
}
std::unique_ptr<Adversary> make_avoider_adversary(std::uint64_t seed) {
  return std::make_unique<AvoiderAdversary>(seed);
}
std::unique_ptr<Adversary> make_phase_adversary(std::uint64_t seed,
                                                std::uint64_t max_phase_edges) {
  return std::make_unique<PhaseAdversary>(seed, max_phase_edges);
}
std::unique_ptr<Adversary> make_skew_adversary(std::uint64_t seed, int ratio) {
  return std::make_unique<SkewAdversary>(seed, ratio);
}

std::vector<std::unique_ptr<Adversary>> adversary_battery(std::uint64_t seed) {
  std::vector<std::unique_ptr<Adversary>> out;
  out.push_back(make_fair_adversary());
  out.push_back(make_random_adversary(seed, 500));
  out.push_back(make_random_adversary(seed + 1, 850));
  out.push_back(make_stall_adversary(0, 2000));
  out.push_back(make_stall_adversary(1, 2000));
  out.push_back(make_burst_adversary(seed + 2));
  out.push_back(make_oscillating_adversary(seed + 3));
  out.push_back(make_avoider_adversary(seed + 4));
  out.push_back(make_phase_adversary(seed + 5));
  out.push_back(make_skew_adversary(seed + 6));
  return out;
}

std::vector<std::string> adversary_battery_names() {
  return {"fair",   "random50",    "random85", "stall-a", "stall-b",
          "burst",  "oscillating", "avoider",  "phase",   "skew"};
}

}  // namespace asyncrv
