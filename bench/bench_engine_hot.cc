// Hot-path engine benchmark — the tracked perf surface of the simulator.
//
// Measures ns/traversal and sweeps/sec of sim::SimEngine across
// {2-agent Halt rendezvous, 6-agent Continue} x {ring, torus, petersen} x
// adversary styles, plus the zero-contact sweep microbenchmark that the
// occupancy index targets. Every scenario runs twice: on the indexed hot
// path and on the retained reference scan (set_reference_scan — the
// verbatim pre-index sweep with its per-sweep allocations), so the
// before/after is measured by one binary in one process.
//
// The batched-sweep lane (DESIGN.md §8) measures the experiment pipeline
// itself: a homogeneous >=1024-cell rendezvous sweep on one worker thread,
// once scalar and once with PipelineOptions::batch, reported as
// scenarios/sec (batch/ rows) and ns per charged agent step (batchstep/
// rows) with the batched-vs-scalar speedup.
//
// The route and splice lanes measure the trajectory layer alone: ns per
// move pulled straight from rv_route (a fresh route's first 10k moves, and
// a replay-dominated 2M-move pull), and one leaf pulled through 1 and 8
// spliced generator links, plus the 8-link forwarding-loop twin (route/
// and splice/ rows).
//
// --json <path> emits BENCH_engine.json (schema asyncrv.bench_engine.v1:
// scenario, items, seconds, items_per_sec, ns_per_item, git rev), the
// repo's tracked perf trajectory; CI's perf-smoke job uploads it per
// commit. --quick shrinks the workload for smoke runs. Exits non-zero if
// any scenario fails to make progress (items/sec must be > 0).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_rev.h"
#include "graph/builders.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "traj/traj.h"
#include "util/prng.h"

namespace asyncrv {
namespace {

struct BenchResult {
  std::string scenario;
  std::uint64_t items = 0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double ns_per_item = 0.0;
};

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

BenchResult finish(std::string scenario, std::uint64_t items, double seconds) {
  BenchResult r;
  r.scenario = std::move(scenario);
  r.items = items;
  r.seconds = seconds;
  r.items_per_sec = seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
  r.ns_per_item =
      items > 0 ? seconds * 1e9 / static_cast<double>(items) : 0.0;
  return r;
}

/// An endless seeded random walk — the synthetic route of the Continue
/// scenarios (real SGL routes are coroutines; the walk isolates engine
/// cost from trajectory-generation cost).
sim::MoveSource random_walk(const Graph& g, Node start, std::uint64_t seed) {
  struct State {
    Node at;
    Rng rng;
  };
  auto st = std::make_shared<State>(State{start, Rng(seed)});
  return [&g, st]() -> std::optional<Move> {
    const Port p = static_cast<Port>(
        st->rng.below(static_cast<std::uint64_t>(g.degree(st->at))));
    const Graph::Half h = g.step(st->at, p);
    Move m{st->at, h.to, p, h.port_at_to};
    st->at = h.to;
    return m;
  };
}

/// A one-move source that parks an agent inside its first edge forever.
sim::MoveSource one_move(const Graph& g, Node start, Port p) {
  auto used = std::make_shared<bool>(false);
  return [&g, start, p, used]() -> std::optional<Move> {
    if (*used) return std::nullopt;
    *used = true;
    const Graph::Half h = g.step(start, p);
    return Move{start, h.to, p, h.port_at_to};
  };
}

/// Zero-contact sweep microbench: n agents parked inside pairwise disjoint
/// edges of a ring; agent 0 oscillates strictly inside its edge, so every
/// advance is exactly one sweep that touches nobody. This is the path the
/// occupancy index turns from O(N)+allocation into O(1).
BenchResult bench_sweep0(int n_agents, bool reference, std::uint64_t sweeps) {
  const Graph g = make_ring(static_cast<Node>(2 * n_agents));
  sim::SimEngine eng(g, sim::MeetingPolicy::Continue);
  eng.set_reference_scan(reference);
  for (int i = 0; i < n_agents; ++i) {
    const Node start = static_cast<Node>(2 * i);
    eng.add_agent({one_move(g, start, 0), start, true, sim::EndPolicy::Retry});
  }
  // Park everyone mid-edge; oscillation stays in [1/4, 3/4] of the edge.
  for (int i = 0; i < n_agents; ++i) eng.advance(i, kEdgeUnits / 2);

  const std::int64_t amp = kEdgeUnits / 4;
  const auto t0 = Clock::now();
  for (std::uint64_t s = 0; s < sweeps; s += 2) {
    eng.advance(0, amp);
    eng.advance(0, -amp);
  }
  const double dt = elapsed_seconds(t0);
  return finish("sweep0/ring:" + std::to_string(2 * n_agents) + "/n" +
                    std::to_string(n_agents) +
                    (reference ? "/refscan" : "/indexed"),
                sweeps, dt);
}

std::unique_ptr<Adversary> styled_adversary(const std::string& style,
                                            std::uint64_t seed) {
  if (style == "fair") return make_fair_adversary();
  if (style == "avoider") return make_avoider_adversary(seed);
  if (style == "burst") return make_burst_adversary(seed);
  if (style == "skew") return make_skew_adversary(seed);
  return make_random_adversary(seed, 500);
}

/// 2-agent Halt rendezvous throughput: real rv_route trajectories, driven
/// by an adversary to the meeting (or the per-run budget); runs repeat
/// until enough traversals accumulated. Engine + route construction is in
/// the measured region — this is cold-run cost, the pipeline's dominant
/// term on cache misses.
BenchResult bench_halt2(const std::string& graph_name, const Graph& g,
                        const std::string& style, bool reference,
                        std::uint64_t target_items) {
  const TrajKit kit(PPoly::tiny(), 0x5eed0001);
  std::uint64_t items = 0;
  std::uint64_t run = 0;
  const auto t0 = Clock::now();
  while (items < target_items) {
    sim::SimEngine eng(g, sim::MeetingPolicy::Halt);
    eng.set_reference_scan(reference);
    const Node sb = g.size() - 1;
    eng.add_agent({sim::make_walker_route(
                       g, 0, [&](Walker& w) { return rv_route(w, kit, 9, nullptr); }),
                   0, true, sim::EndPolicy::Sticky});
    eng.add_agent({sim::make_walker_route(
                       g, sb,
                       [&](Walker& w) { return rv_route(w, kit, 14, nullptr); }),
                   sb, true, sim::EndPolicy::Sticky});
    auto adv = styled_adversary(style, 0xE9 + run);
    const RendezvousResult r = sim::run_rendezvous(eng, *adv, 40'000);
    items += r.cost() > 0 ? r.cost() : 1;
    ++run;
  }
  const double dt = elapsed_seconds(t0);
  return finish("halt2/" + graph_name + "/" + style +
                    (reference ? "/refscan" : "/indexed"),
                items, dt);
}

/// 6-agent Continue throughput: endless random walks under a battery-style
/// adversary, measured in completed traversals across the whole team.
BenchResult bench_cont6(const std::string& graph_name, const Graph& g,
                        const std::string& style, bool reference,
                        std::uint64_t target_items) {
  constexpr int kAgents = 6;
  sim::SimEngine eng(g, sim::MeetingPolicy::Continue);
  eng.set_reference_scan(reference);
  for (int i = 0; i < kAgents; ++i) {
    const Node start =
        static_cast<Node>((static_cast<std::uint64_t>(i) * g.size()) / kAgents);
    eng.add_agent({random_walk(g, start, 0xC0FFEE + static_cast<std::uint64_t>(i)),
                   start, true, sim::EndPolicy::Sticky});
  }
  auto adv = styled_adversary(style, 0xE9);
  const auto t0 = Clock::now();
  while (eng.total_traversals() < target_items) {
    for (int burst = 0; burst < 64; ++burst) {
      const AdvStep step = adv->next(eng);
      eng.advance(step.agent, step.delta);
    }
  }
  const double dt = elapsed_seconds(t0);
  return finish("cont6/" + graph_name + "/" + style +
                    (reference ? "/refscan" : "/indexed"),
                eng.total_traversals(), dt);
}

/// Large-graph lane 1: cold construction throughput of a registry id
/// (parse, build, CSR fill, connectivity check) — the per-topology price a
/// sweep pays exactly once now that the pipeline interns graphs.
BenchResult bench_build(const std::string& id, std::uint64_t builds) {
  std::size_t nodes = 0, bytes = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t b = 0; b < builds; ++b) {
    const Graph g = runner::make_graph(id);
    nodes = g.size();
    bytes = g.memory_bytes();
  }
  const double dt = elapsed_seconds(t0);
  std::printf("  built %s: n=%zu, %.1f MB CSR\n", id.c_str(), nodes,
              static_cast<double>(bytes) / (1024.0 * 1024.0));
  return finish("build/" + id, builds, dt);
}

/// Large-graph lane 2: steady-state sweep cost at large N — 2 agents on
/// endless random walks across the whole instance under a fair schedule.
/// With CSR storage a traversal's graph work is two contiguous loads, so
/// ns/item should stay flat from ring:64 to grid:512x512.
BenchResult bench_walk2(const std::string& id, const Graph& g,
                        std::uint64_t target_items) {
  sim::SimEngine eng(g, sim::MeetingPolicy::Continue);
  const Node mid = g.size() / 2;
  eng.add_agent({random_walk(g, 0, 0xBEEF01), 0, true, sim::EndPolicy::Sticky});
  eng.add_agent({random_walk(g, mid, 0xBEEF02), mid, true,
                 sim::EndPolicy::Sticky});
  auto adv = make_fair_adversary();
  const auto t0 = Clock::now();
  while (eng.total_traversals() < target_items) {
    for (int burst = 0; burst < 64; ++burst) {
      const AdvStep step = adv->next(eng);
      eng.advance(step.agent, step.delta);
    }
  }
  const double dt = elapsed_seconds(t0);
  return finish("walk2/" + id + "/fair/indexed", eng.total_traversals(), dt);
}

/// Route lane: ns per move pulled straight from rv_route (label 9, the
/// pipeline's default `tiny` kit), no engine — the trajectory layer's
/// share of every traversal. Pulls `prefix` moves from each of `routes`
/// fresh routes: a 10k prefix is mostly B(2)'s first, generated
/// repetition of Y(2, v) (3,948 moves) plus route setup; one 2M-move pull
/// is dominated by replayed repetitions.
BenchResult bench_route(const std::string& id, const std::string& shape,
                        std::uint64_t prefix, std::uint64_t routes) {
  const Graph g = runner::make_graph(id);
  const TrajKit kit(PPoly::tiny());
  std::uint64_t items = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t r = 0; r < routes; ++r) {
    Walker w(g, 0);
    auto route = rv_route(w, kit, 9, nullptr);
    while (w.total_moves() < prefix && route.next()) ++items;
  }
  const double dt = elapsed_seconds(t0);
  return finish("route/" + id + "/" + shape, items, dt);
}

/// `depth` links above an `n`-move leaf that walks around a ring. Each link
/// splices the one below it or, in the forwarding twin (how trajectories
/// nested before splicing), re-yields its every move.
Generator<Move> chain(Walker& w, std::uint64_t n, int depth, bool spliced) {
  if (depth == 0) {
    for (std::uint64_t i = 0; i < n; ++i) co_yield w.take(0);
  } else if (spliced) {
    co_yield chain(w, n, depth - 1, true);
  } else {
    auto below = chain(w, n, depth - 1, false);
    while (below.next()) co_yield below.value();
  }
}

/// Splice lanes: ns per move of one `n`-move leaf pulled through `depth`
/// links. Spliced, the cost must not grow with depth (one resume per move);
/// the forwarding twin pays one resume per link.
BenchResult bench_splice(int depth, bool spliced, std::uint64_t n) {
  const Graph g = make_ring(16);
  Walker w(g, 0);
  auto root = chain(w, n, depth, spliced);
  std::uint64_t items = 0;
  const auto t0 = Clock::now();
  while (root.next()) ++items;
  const double dt = elapsed_seconds(t0);
  return finish("splice/depth" + std::to_string(depth) +
                    (spliced ? "/spliced" : "/forwarded"),
                items, dt);
}

/// Batched-sweep lane (DESIGN.md §8): a homogeneous `cells`-cell
/// rendezvous sweep pushed through the experiment pipeline on ONE worker
/// thread, once scalar and once with PipelineOptions::batch — the
/// before/after of the lockstep engine. Emits two row pairs per mode:
/// batch/ counts scenarios (items/sec = scenarios/sec) and batchstep/
/// counts charged traversals (ns/item = ns per charged agent step); the
/// /batched rows report their speedup over the /scalar twins.
void bench_batch_sweep(std::size_t cells, std::vector<BenchResult>* out) {
  // grid:32x32 under the fair schedule with labels {9, 14} is budget-bound
  // (no meeting within 10k traversals): every cell walks the full budget,
  // so the lane measures sustained execution throughput — the regime where
  // scalar route re-generation dominates and the shared RouteTable pays.
  const std::string graph = "grid:32x32";
  std::vector<runner::ExperimentSpec> specs;
  specs.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    runner::RendezvousSpec rv;
    rv.graph = graph;
    rv.adversary = "fair";
    rv.labels = {9, 14};
    rv.budget = 10'000;
    rv.seed = 0xE9 + i;
    specs.push_back({.name = "", .scenario = std::move(rv)});
  }
  const std::string tag = graph + "/cells" + std::to_string(cells);
  for (const bool batched : {false, true}) {
    runner::PipelineOptions opts;
    opts.threads = 1;
    opts.batch = batched;
    const auto t0 = Clock::now();
    const runner::PipelineReport report =
        runner::ExperimentPipeline(opts).run(specs);
    const double dt = elapsed_seconds(t0);
    const std::string mode = batched ? "/batched" : "/scalar";
    out->push_back(finish("batch/" + tag + mode, cells, dt));
    out->push_back(
        finish("batchstep/" + tag + mode, report.totals.total_cost, dt));
    if (report.totals.errored != 0 || (batched && report.batched != cells)) {
      std::fprintf(stderr,
                   "batch lane invariant broken: %llu errored, %llu of %zu "
                   "cells batched\n",
                   static_cast<unsigned long long>(report.totals.errored),
                   static_cast<unsigned long long>(report.batched), cells);
      std::exit(1);
    }
  }
}

/// Fast-lane suffix -> slow-twin suffix: a scenario ending in the first
/// suffix prints its speedup against the same scenario ending in the
/// second (the retained reference scan; the scalar pipeline).
constexpr struct {
  const char* fast;
  const char* slow;
} kTwinSuffixes[] = {
    {"/indexed", "/refscan"},
    {"/batched", "/scalar"},
    {"/spliced", "/forwarded"},
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// The per-lane summary shared by every lane (indexed/refscan engine
/// twins, batched/scalar pipeline twins, unpaired lanes): items/sec,
/// ns/item, and the fast-vs-slow speedup where the slow twin was
/// measured. Returns false when the lane failed to make progress
/// (items/sec must be > 0) so main can exit non-zero.
bool print_result(const BenchResult& r, const std::vector<BenchResult>& all) {
  double speedup = 0.0;
  for (const auto& twin : kTwinSuffixes) {
    if (!ends_with(r.scenario, twin.fast) || r.ns_per_item <= 0.0) continue;
    const std::string slow =
        r.scenario.substr(0, r.scenario.size() - std::strlen(twin.fast)) +
        twin.slow;
    for (const BenchResult& o : all) {
      if (o.scenario == slow) speedup = o.ns_per_item / r.ns_per_item;
    }
  }
  if (speedup > 0.0) {
    std::printf("%-38s %14.0f %12.2f %9.2fx\n", r.scenario.c_str(),
                r.items_per_sec, r.ns_per_item, speedup);
  } else {
    std::printf("%-38s %14.0f %12.2f %10s\n", r.scenario.c_str(),
                r.items_per_sec, r.ns_per_item, "-");
  }
  return r.items_per_sec > 0.0;
}

void write_json(const std::string& path, const std::string& rev,
                const std::vector<BenchResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"asyncrv.bench_engine.v1\",\n");
  std::fprintf(f, "  \"git_rev\": \"%s\",\n  \"results\": [\n", rev.c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"items\": %llu, \"seconds\": "
                 "%.6f, \"items_per_sec\": %.1f, \"ns_per_item\": %.2f}%s\n",
                 r.scenario.c_str(),
                 static_cast<unsigned long long>(r.items), r.seconds,
                 r.items_per_sec, r.ns_per_item,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace asyncrv

int main(int argc, char** argv) {
  using namespace asyncrv;
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_engine_hot [--json <path>] [--quick]\n";
      return 1;
    }
  }

  const std::uint64_t scale = quick ? 10 : 1;
  const std::uint64_t sweep_iters = 2'000'000 / scale;
  const std::uint64_t route_items = 200'000 / scale;

  struct NamedGraph {
    std::string name;
    Graph g;
  };
  std::vector<NamedGraph> graphs;
  graphs.push_back({"ring:64", make_ring(64)});
  graphs.push_back({"torus:8x8", make_torus(8, 8)});
  graphs.push_back({"petersen", make_petersen()});

  std::vector<BenchResult> results;
  for (const bool reference : {false, true}) {
    for (const int n : {2, 8}) {
      results.push_back(bench_sweep0(n, reference, sweep_iters));
    }
    for (const NamedGraph& ng : graphs) {
      for (const std::string style : {"fair", "random", "avoider"}) {
        // The avoider schedule spends thousands of 1-unit concessions per
        // charged traversal; a smaller traversal target keeps its
        // wall-clock comparable to the other styles.
        const std::uint64_t target =
            style == "avoider" ? route_items / 20 : route_items;
        results.push_back(bench_halt2(ng.name, ng.g, style, reference, target));
      }
      for (const std::string style : {"fair", "burst", "skew"}) {
        results.push_back(
            bench_cont6(ng.name, ng.g, style, reference, route_items));
      }
    }
  }

  // Large-graph lanes (DESIGN.md §7): graph-build cost and steady-state
  // sweep cost at large N. Indexed path only — the refscan twin's cost is
  // agent-count-bound, not node-count-bound, so it adds nothing here.
  std::puts("\nlarge-graph lanes:");
  for (const std::string& id : runner::large_catalog_ids()) {
    results.push_back(bench_build(id, quick ? 2 : 5));
  }
  for (const std::string& id : runner::large_catalog_ids()) {
    const Graph g = runner::make_graph(id);
    results.push_back(bench_walk2(id, g, route_items));
  }

  // Trajectory lanes: moves pulled from generators without an engine.
  std::puts("\nroute and splice lanes:");
  results.push_back(bench_route("torus:16x16", "first10k", 10'000, 200 / scale));
  results.push_back(
      bench_route("grid:12x12", "replay2M", 2'000'000 / scale, 1));
  for (const int depth : {1, 8}) {
    results.push_back(bench_splice(depth, true, 2'000'000 / scale));
  }
  results.push_back(bench_splice(8, false, 2'000'000 / scale));

  // Batched-sweep lanes: >=1024 homogeneous cells in full runs, 128 in
  // --quick (CI's perf-smoke still gates batched > scalar there).
  std::puts("\nbatched-sweep lane:");
  bench_batch_sweep(quick ? 128 : 1024, &results);

  std::printf("%-38s %14s %12s %10s\n", "scenario", "items/sec", "ns/item",
              "speedup");
  bool ok = true;
  for (const BenchResult& r : results) {
    if (!print_result(r, results)) ok = false;
  }

  const std::string rev = bench::git_rev();
  if (!json_path.empty()) {
    bench::warn_if_stale(json_path, rev);
    write_json(json_path, rev, results);
    std::printf("\nwrote %s (git_rev %s)\n", json_path.c_str(), rev.c_str());
  }
  if (!ok) {
    std::cerr << "FAIL: a scenario reported items/sec <= 0\n";
    return 1;
  }
  return 0;
}
