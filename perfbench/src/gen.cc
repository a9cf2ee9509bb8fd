#include "gen.h"

#include <stdexcept>

#include "runner/registry.h"
#include "sim/adversary.h"
#include "util/prng.h"

namespace perfbench {

using asyncrv::Rng;
using asyncrv::splitmix64;
using asyncrv::runner::RendezvousSpec;
using asyncrv::runner::SglSpec;

namespace {

/// A label of exactly `bits` bits (bits >= 1).
std::uint64_t label_of_length(Rng& rng, int bits) {
  const std::uint64_t lo = std::uint64_t{1} << (bits - 1);
  return lo + rng.below(lo);
}

ExperimentSpec rendezvous(std::string graph, std::string adversary,
                          std::vector<std::uint64_t> labels,
                          std::uint64_t budget, std::uint64_t seed) {
  RendezvousSpec rv;
  rv.graph = std::move(graph);
  rv.adversary = std::move(adversary);
  rv.labels = std::move(labels);
  rv.budget = budget;
  rv.seed = seed;
  return {.name = "", .scenario = std::move(rv)};
}

}  // namespace

Size Size::named(const std::string& name) {
  Size s;
  if (name == "full") return s;
  if (name != "smoke") throw std::invalid_argument("unknown size: " + name);
  s.theorem_graphs = 3;
  s.theorem_sgl = 0;
  s.replicas = 4;
  s.scale_cells = 2'000;
  s.warm_cells = 32;
  s.min_requests = 40;
  return s;
}

std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t it) {
  return splitmix64(splitmix64(seed) ^ (it + 1));
}

std::vector<ExperimentSpec> theorem_specs(std::uint64_t seed, std::uint64_t it,
                                          const Size& size) {
  Rng rng(iteration_seed(seed, it));
  const std::string s = std::to_string(1 + rng.below(1'000'000));
  std::vector<ExperimentSpec> specs;

  // The SGL slice — the long pole, 0.5–3 s a cell. Its scheduler seed
  // follows the iteration index, not --seed: SGL cost swings 2–3× with the
  // scheduler seed, which would otherwise swamp every run-to-run figure.
  const std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
      teams = {{"edge", {3, 6}}, {"ring:3", {3, 5, 6}}};
  for (std::size_t i = 0; i < size.theorem_sgl; ++i) {
    const auto& [graph, labels] = teams[i % teams.size()];
    SglSpec sgl;
    sgl.graph = graph;
    sgl.labels = labels;
    sgl.seed = iteration_seed(0x5617, it * teams.size() + i);
    specs.push_back({.name = "", .scenario = std::move(sgl)});
  }

  // Graph families × sizes. The small graphs that stay cheap under any
  // port numbering are shuffled or re-drawn per seed; the rest (the bulk of
  // the time) keep their shape. torus:256x256 (65,536 nodes) stands for
  // the large-graph regime.
  const std::vector<std::string> graphs = {
      "ring:16@" + s,      "grid:8x8",         "tree:32:" + s,
      "random:64:30:" + s, "hypercube:6@" + s, "bintree:5",
      "grid:12x12",        "lollipop:12:5",    asyncrv::runner::large_catalog_ids()[1]};
  const std::vector<std::string> battery = asyncrv::adversary_battery_names();
  const std::size_t n_graphs =
      size.theorem_graphs < graphs.size() ? size.theorem_graphs : graphs.size();
  for (std::size_t g = 0; g < n_graphs; ++g) {
    for (int bits = 2; bits <= 8; ++bits) {
      const std::uint64_t a = label_of_length(rng, bits);
      const std::uint64_t b = label_of_length(rng, bits + 1 + rng.below(3));
      for (const std::string& adv : battery) {
        specs.push_back(rendezvous(graphs[g], adv, {a, b}, 1'000'000,
                                   asyncrv::runner::battery_seed(adv, rng.next())));
      }
    }
  }
  return specs;
}

std::vector<ExperimentSpec> replica_specs(std::uint64_t seed, std::uint64_t it,
                                          const Size& size) {
  Rng rng(iteration_seed(seed, it));
  std::vector<ExperimentSpec> specs;
  specs.reserve(3 * 4 * size.replicas);
  for (const char* graph : {"grid:32x32", "torus:32x32", "rreg:4096,3@7"}) {
    for (const char* adv : {"fair", "random50", "burst", "skew"}) {
      for (std::size_t r = 0; r < size.replicas; ++r) {
        specs.push_back(rendezvous(graph, adv, {9, 14}, 20'000, rng.next()));
      }
    }
  }
  return specs;
}

std::vector<ExperimentSpec> scale_specs(std::uint64_t seed, std::uint64_t it,
                                        const Size& size) {
  return asyncrv::runner::scale_grid(size.scale_cells, 256,
                                     iteration_seed(seed, it));
}

ExperimentSpec daemon_replica(std::uint64_t seed, std::uint64_t n) {
  static const char* const kGraphs[] = {"grid:16x16", "torus:16x16"};
  static const char* const kAdversaries[] = {"fair", "random50", "burst",
                                             "skew"};
  return rendezvous(kGraphs[n % 2], kAdversaries[(n / 2) % 4], {9, 14}, 20'000,
                    splitmix64(seed ^ (0xd0 + n)));
}

ExperimentSpec daemon_single(std::uint64_t seed, std::uint64_t n) {
  static const char* const kGraphs[] = {"ring:12", "grid:6x6", "tree:24:3",
                                        "random:32:12:5", "hypercube:5",
                                        "ringchord:16"};
  Rng rng(splitmix64(seed ^ (0x5100 + n)));
  const std::vector<std::string> battery = asyncrv::adversary_battery_names();
  const int bits = 2 + static_cast<int>(rng.below(7));
  return rendezvous(kGraphs[rng.below(6)], battery[rng.below(battery.size())],
                    {label_of_length(rng, bits), label_of_length(rng, bits + 1)},
                    20'000, rng.next());
}

}  // namespace perfbench
