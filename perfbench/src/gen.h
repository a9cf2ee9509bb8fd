// Seeded input generation for the four benchmark workloads.
//
// Every spec the benchmark submits is a pure function of (--seed, size,
// iteration index): the program under test only ever receives the
// generated specs. The generators keep the expensive part of each
// workload fixed in shape (graph families, budgets, team shapes) and let
// the seed vary what users vary between sweeps — adversary seeds, labels,
// port shuffles, replica seeds — so runs with different seeds measure
// the same amount of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/spec.h"

namespace perfbench {

using asyncrv::runner::ExperimentSpec;

/// Workload sizes. `full` is the measured size; `smoke` finishes every
/// workload in seconds (the benchmark's own tests run at it).
struct Size {
  /// sweep-theorem: rendezvous graphs per iteration (7 label bit-lengths ×
  /// the 10-adversary battery each) and SGL cells per iteration.
  std::size_t theorem_graphs = 9;
  std::size_t theorem_sgl = 2;
  /// sweep-replicas: replica seeds per (graph, adversary) configuration.
  std::size_t replicas = 256;
  /// scale-sharded: scale_grid cells per iteration.
  std::uint64_t scale_cells = 100'000;
  /// daemon-mixed: warm-set cells and the minimum request count.
  std::size_t warm_cells = 256;
  std::size_t min_requests = 1000;

  static Size named(const std::string& name);  ///< "full" | "smoke"
};

/// The per-iteration seed stream: a distinct, reproducible 64-bit seed for
/// iteration `it` of a run with seed `seed`.
std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t it);

/// sweep-theorem: SGL cells first (the long pole starts early), then
/// graph families × sizes (one large id included) × label bit-lengths
/// 2..8 × the full adversary battery.
std::vector<ExperimentSpec> theorem_specs(std::uint64_t seed, std::uint64_t it,
                                          const Size& size);

/// sweep-replicas: many seeds of a few budget-bound configurations with
/// fixed labels (grid:32x32 / torus:32x32 / rreg under fair, random50,
/// burst and skew).
std::vector<ExperimentSpec> replica_specs(std::uint64_t seed, std::uint64_t it,
                                          const Size& size);

/// scale-sharded: one scale_grid sweep.
std::vector<ExperimentSpec> scale_specs(std::uint64_t seed, std::uint64_t it,
                                        const Size& size);

/// daemon-mixed: replica cell number `n` of the daemon's replica family
/// (the warm set is n < warm_cells; fresh replicas continue the count).
ExperimentSpec daemon_replica(std::uint64_t seed, std::uint64_t n);

/// daemon-mixed: one small heterogeneous rendezvous cell (the RUN verb).
ExperimentSpec daemon_single(std::uint64_t seed, std::uint64_t n);

}  // namespace perfbench
