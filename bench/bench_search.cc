// Adversarial schedule search benchmark — does the optimizer beat the
// hand-written battery? (DESIGN.md §6)
//
// For every graph in {ring, torus, petersen, hypercube, rreg} and every
// search objective, runs a budgeted search through the experiment pipeline
// surface (run_experiment on a SearchSpec) and, for the rendezvous-style
// objectives, the full 10-strategy catalog battery on the identical
// instance — reporting the worst cost each side found. The table makes
// the tentpole claim measurable: a searched schedule should dominate
// every catalog adversary.
//
// --json <path> emits BENCH_search.json (schema asyncrv.bench_search.v1:
// scenario, items, seconds, items_per_sec, ns_per_item — the same fields
// BENCH_engine.json tracks — plus the search-specific best_cost,
// catalog_best_cost, violations, bound). CI's search-smoke job runs
// --quick per objective, asserts zero CalibratedPi margin violations on
// the certified battery, and uploads the JSON. Exits non-zero if any
// search made no progress.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_rev.h"
#include "runner/graph_cache.h"
#include "runner/outcome.h"
#include "runner/registry.h"
#include "runner/sink.h"
#include "search/objective.h"

namespace asyncrv {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string scenario;
  std::uint64_t items = 0;  ///< objective evaluations spent
  double seconds = 0.0;
  double items_per_sec = 0.0;
  double ns_per_item = 0.0;
  // Search-specific trailer fields.
  std::uint64_t best_cost = 0;
  std::uint64_t catalog_best_cost = 0;
  std::uint64_t violations = 0;
  std::uint64_t bound = 0;
};

double elapsed_seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worst (maximum) rendezvous cost any catalog adversary achieves on this
/// instance — the baseline the search must beat. Uses the same per-name
/// seed offsets the historical battery tables used. Every run resolves
/// the graph through the shared interning cache: ten battery runs, zero
/// extra constructions.
std::uint64_t catalog_best(const runner::SearchSpec& search,
                           std::uint64_t budget, runner::GraphCache& graphs) {
  std::uint64_t best = 0;
  for (const std::string& name : adversary_battery_names()) {
    runner::RendezvousSpec rv;
    rv.graph = search.graph;
    rv.adversary = name;
    rv.labels = search.labels;
    rv.starts = search.starts;
    rv.budget = budget;
    rv.seed = runner::battery_seed(name, search.seed);
    rv.ppoly = search.ppoly;
    rv.kit_seed = search.kit_seed;
    const runner::ExperimentOutcome out = runner::run_experiment(
        {.name = "", .scenario = std::move(rv)}, nullptr, &graphs);
    if (out.status == runner::RunStatus::Error) {
      std::cerr << "catalog run failed: " << out.error << "\n";
      std::exit(1);
    }
    if (out.cost > best) best = out.cost;
  }
  return best;
}

void write_json(const std::string& path, const std::string& rev,
                const std::vector<BenchResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"asyncrv.bench_search.v1\",\n");
  std::fprintf(f, "  \"git_rev\": \"%s\",\n  \"results\": [\n", rev.c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"items\": %llu, \"seconds\": %.6f, "
        "\"items_per_sec\": %.1f, \"ns_per_item\": %.2f, "
        "\"best_cost\": %llu, \"catalog_best_cost\": %llu, "
        "\"violations\": %llu, \"bound\": %llu}%s\n",
        r.scenario.c_str(), static_cast<unsigned long long>(r.items),
        r.seconds, r.items_per_sec, r.ns_per_item,
        static_cast<unsigned long long>(r.best_cost),
        static_cast<unsigned long long>(r.catalog_best_cost),
        static_cast<unsigned long long>(r.violations),
        static_cast<unsigned long long>(r.bound),
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
      std::cerr << "usage: bench_search [--json <path>] [--quick]\n";
      return 1;
    }
  }

  runner::banner("bench_search", "DESIGN.md §6",
                 "worst-found adversary schedule vs the hand-written catalog");

  // Far-apart starts give the adversary room to play: adjacent default
  // starts (ring's 0 and n-1) cap every schedule at a near-instant meeting.
  struct Instance {
    std::string graph;
    Node start_b;
  };
  // ring:6 and petersen are certified-battery graphs
  // (tests/rv_integration_test.cc): CI gates on zero violations there.
  // The larger instances are exploration territory — the full-budget
  // pi-margin search DOES find a genuine margin breach on ring:12
  // (see DESIGN.md §6), which is reported, tracked, and not gated.
  const std::vector<Instance> graphs = {{"ring:6", 3},
                                        {"ring:12", 6},
                                        {"torus:4x4", 10},
                                        {"petersen", 9},
                                        {"hypercube:3", 7},
                                        {"rreg:10,3@7", 5}};
  const std::uint64_t evaluations = quick ? 40 : 240;
  const std::uint64_t esst_budget = quick ? 25'000 : 100'000;

  std::vector<BenchResult> results;
  runner::Schema schema = {
      {"graph", runner::ColumnType::Str},
      {"objective", runner::ColumnType::Str},
      {"evals", runner::ColumnType::U64},
      {"best_cost", runner::ColumnType::U64},
      {"catalog_best", runner::ColumnType::U64},
      {"phase", runner::ColumnType::U64},
      {"bound", runner::ColumnType::U64},
      {"violations", runner::ColumnType::U64},
      {"beats_catalog", runner::ColumnType::Str},  ///< "-" when no baseline
  };
  std::vector<runner::Row> rows;

  bool search_beat_catalog_everywhere = true;
  // One interning cache for the whole table: each instance is built once
  // and shared by the search, the pi-margin bound computations and the
  // ten-strategy catalog baseline.
  runner::GraphCache graph_cache;
  for (const Instance& inst : graphs) {
    const std::string& graph = inst.graph;
    const GraphHandle instance = graph_cache.resolve(graph);
    for (const std::string& objective : search::objective_names()) {
      runner::SearchSpec spec;
      spec.graph = graph;
      spec.objective = objective;
      spec.optimizer = "hill";
      spec.labels = {5, 12};
      spec.starts = {0, inst.start_b};
      // ~20x the worst catalog cost: enough headroom for the search to
      // dominate, small enough that delaying schedules stay cheap to score.
      spec.budget = objective == "esst-phase" ? esst_budget : 40'000;
      const bool certified = graph == "ring:6" || graph == "petersen";
      if (objective == "pi-margin" && (certified || !quick)) {
        // The full violation hunt: budget past pi_hat/2, so the CI gate on
        // certified graphs is never vacuously clean. Cheap exactly where
        // the margin holds (meetings come early); on the exploration
        // graphs this is the expensive full-budget search that found the
        // ring:12 counterexample, so --quick caps it at the slack-
        // measurement budget instead.
        spec.budget =
            search::pi_margin_bound(*instance, spec.labels[0], spec.labels[1]) /
                2 +
            1;
      }
      spec.evaluations = evaluations;
      spec.genome_len = 16;
      spec.seed = 0x5ea2c4;

      const auto t0 = Clock::now();
      const runner::ExperimentOutcome out = runner::run_experiment(
          {.name = "", .scenario = spec}, nullptr, &graph_cache);
      const double dt = elapsed_seconds(t0);
      if (out.status == runner::RunStatus::Error) {
        std::cerr << "search failed on " << graph << "/" << objective << ": "
                  << out.error << "\n";
        return 1;
      }
      const runner::SearchOutcome& so = *out.search();

      BenchResult r;
      r.scenario = "search/" + graph + "/" + objective + "/" + spec.optimizer;
      r.items = so.evaluations;
      r.seconds = dt;
      r.items_per_sec = dt > 0.0 ? static_cast<double>(so.evaluations) / dt : 0.0;
      r.ns_per_item = so.evaluations > 0
                          ? dt * 1e9 / static_cast<double>(so.evaluations)
                          : 0.0;
      r.best_cost = so.best_cost;
      r.violations = so.violations;
      r.bound = so.bound;
      if (objective != "esst-phase") {
        // Identical instance, same per-evaluation budget the search ran
        // under — mirroring the evaluator's pi-margin truncation
        // min(spec.budget, pi_hat/2 + 1), so neither side can bank cost
        // the other was not allowed to observe.
        std::uint64_t budget = spec.budget;
        if (objective == "pi-margin") {
          budget = std::min(budget, search::pi_margin_bound(*instance,
                                                            spec.labels[0],
                                                            spec.labels[1]) /
                                        2 +
                                    1);
        }
        r.catalog_best_cost = catalog_best(spec, budget, graph_cache);
        if (r.best_cost <= r.catalog_best_cost) {
          search_beat_catalog_everywhere = false;
        }
      }
      results.push_back(r);
      // esst-phase has no catalog baseline (the battery is a rendezvous
      // battery); a boolean cell would read as a vacuous win.
      const std::string beats =
          objective == "esst-phase"
              ? "-"
              : (r.best_cost > r.catalog_best_cost ? "yes" : "no");
      rows.push_back({graph, objective, so.evaluations, so.best_cost,
                      r.catalog_best_cost, so.best_phase, so.bound,
                      so.violations, beats});

      if (so.violations > 0 && objective == "pi-margin") {
        std::cout << "*** CALIBRATION VIOLATION: " << graph << " " << objective
                  << " found " << so.violations
                  << " evaluation(s) breaching the CalibratedPi half-margin "
                     "(genome "
                  << so.best_genome << ")\n";
      }
      if (so.violations > 0 && objective == "esst-phase") {
        std::cout << "*** THEOREM 2.1 BRACKET VIOLATION: " << graph
                  << " ESST stopped above 9n+3 (genome " << so.best_genome
                  << ")\n";
      }
    }
  }

  runner::ConsoleSink console;
  runner::emit(console, schema, rows);
  std::cout << (search_beat_catalog_everywhere
                    ? "searched schedules dominate the catalog on every "
                      "rendezvous-style cell\n"
                    : "note: some cells did not beat the catalog at this "
                      "evaluation budget\n");

  if (!json_path.empty()) write_json(json_path, bench::git_rev(), results);

  for (const BenchResult& r : results) {
    if (r.items_per_sec <= 0.0) {
      std::cerr << "no progress: " << r.scenario << "\n";
      return 1;
    }
  }
  return 0;
}
