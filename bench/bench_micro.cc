// Micro-benchmarks (google-benchmark): throughput of the hot paths — UXS
// stepping, trajectory generation through the coroutine stack, sweep-based
// meeting detection, and the exact length calculus.
#include <benchmark/benchmark.h>

#include "explore/coverage.h"
#include "graph/builders.h"
#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "traj/traj.h"

namespace asyncrv {
namespace {

void BM_UxsStepping(benchmark::State& state) {
  Uxs uxs(PPoly::standard(), 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uxs.exit_port(i++, 1, 3));
  }
}
BENCHMARK(BM_UxsStepping);

void BM_CoverageRun(benchmark::State& state) {
  const Graph g = make_ring(static_cast<Node>(state.range(0)));
  Uxs uxs(PPoly::compact(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_coverage(g, uxs, g.size(), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(uxs.length(g.size())));
}
BENCHMARK(BM_CoverageRun)->Arg(8)->Arg(16)->Arg(32);

void BM_TrajectoryGeneration(benchmark::State& state) {
  // Steps/second through the full coroutine nesting of an RV route.
  const Graph g = make_petersen();
  const TrajKit kit(PPoly::tiny(), 1);
  Walker w(g, 0);
  auto route = rv_route(w, kit, 21, nullptr);
  for (auto _ : state) {
    route.next();
    benchmark::DoNotOptimize(route.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrajectoryGeneration);

void BM_DeepTrajectoryGeneration(benchmark::State& state) {
  // A(k) has the deepest static nesting (A > A' > Z > Y > Y' > Q > X > R).
  const Graph g = make_ring(6);
  const TrajKit kit(PPoly::tiny(), 1);
  Walker w(g, 0);
  auto a = std::make_unique<Generator<Move>>(follow_A(w, kit, 6));
  for (auto _ : state) {
    if (!a->next()) {
      a = std::make_unique<Generator<Move>>(follow_A(w, kit, 6));
      a->next();
    }
    benchmark::DoNotOptimize(a->value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeepTrajectoryGeneration);

void BM_RendezvousRun(benchmark::State& state) {
  const Graph g = make_ring(8);
  const TrajKit kit(PPoly::tiny(), 1);
  for (auto _ : state) {
    sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
    engine.add_agent({sim::make_walker_route(
                          g, 0, [&](Walker& w) { return rv_route(w, kit, 9, nullptr); }),
                      0});
    engine.add_agent({sim::make_walker_route(
                          g, 4, [&](Walker& w) { return rv_route(w, kit, 14, nullptr); }),
                      4});
    auto adv = make_random_adversary(7, 500);
    benchmark::DoNotOptimize(sim::run_rendezvous(engine, *adv, 1'000'000));
  }
}
BENCHMARK(BM_RendezvousRun);

void BM_LengthCalculus(benchmark::State& state) {
  for (auto _ : state) {
    LengthCalculus c(PPoly::standard());
    benchmark::DoNotOptimize(pi_bound(c, 8, 4));
  }
}
BENCHMARK(BM_LengthCalculus);

void BM_SweepContact(benchmark::State& state) {
  const Graph g = make_ring(4);
  const Graph::Half h = g.step(0, 0);
  const Move m{0, h.to, 0, h.port_at_to};
  const Pos p = pos_on_move(g, m, kEdgeUnits / 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_contact(g, m, 0, kEdgeUnits, p));
  }
}
BENCHMARK(BM_SweepContact);

/// N agents parked inside pairwise disjoint ring edges; agent 0 oscillates
/// strictly inside its own edge, so every advance is one zero-contact
/// sweep. With the occupancy index the cost is flat in N (only the sweep's
/// own buckets are consulted); the Reference variant below is the retained
/// O(N) scan — running both across N in {2, 4, 8, 16} makes the
/// O(N) -> O(contacts) change directly observable.
void run_zero_contact_sweeps(benchmark::State& state, bool reference_scan) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = make_ring(static_cast<Node>(2 * n));
  sim::SimEngine eng(g, sim::MeetingPolicy::Continue);
  eng.set_reference_scan(reference_scan);
  for (int i = 0; i < n; ++i) {
    const Node start = static_cast<Node>(2 * i);
    auto used = std::make_shared<bool>(false);
    eng.add_agent({[&g, start, used]() -> std::optional<Move> {
                     if (*used) return std::nullopt;
                     *used = true;
                     const Graph::Half h = g.step(start, 0);
                     return Move{start, h.to, 0, h.port_at_to};
                   },
                   start, true, sim::EndPolicy::Retry});
  }
  for (int i = 0; i < n; ++i) eng.advance(i, kEdgeUnits / 2);
  const std::int64_t amp = kEdgeUnits / 4;
  std::int64_t dir = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.advance(0, dir * amp));
    dir = -dir;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ZeroContactSweep(benchmark::State& state) {
  run_zero_contact_sweeps(state, /*reference_scan=*/false);
}
BENCHMARK(BM_ZeroContactSweep)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ZeroContactSweepReference(benchmark::State& state) {
  run_zero_contact_sweeps(state, /*reference_scan=*/true);
}
BENCHMARK(BM_ZeroContactSweepReference)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace asyncrv
