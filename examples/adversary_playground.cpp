// Scenario: how much can the adversary hurt?
//
// The asynchronous adversary controls speeds, stalls, bursts and even
// back-and-forth motion inside edges. This example pits the same pair of
// agents against every strategy in the battery, on a graph that is hard to
// cover (a lollipop), as one ExperimentPipeline batch, and prints
// per-strategy costs (through the Console sink) plus the faithful
// worst-case bound Π(n, m) of Theorem 3.1 for contrast.
#include <cstdint>
#include <iomanip>
#include <iostream>

#include "runner/pipeline.h"
#include "runner/registry.h"
#include "rv/label.h"
#include "rv/pi_bound.h"
#include "traj/lengths_approx.h"
#include "traj/traj.h"

int main() {
  using namespace asyncrv;
  const std::string graph_id = "lollipop:7:4";
  const std::uint64_t label_a = 9, label_b = 14;
  const auto m = static_cast<std::uint64_t>(
      std::min(label_length(label_a), label_length(label_b)));

  std::vector<runner::ExperimentSpec> specs;
  for (const std::string& adv : adversary_battery_names()) {
    runner::RendezvousSpec rv;
    rv.graph = graph_id;
    rv.adversary = adv;
    rv.seed = runner::battery_seed(adv, 99);
    rv.labels = {label_a, label_b};
    rv.starts = {0, 6};
    rv.budget = 50'000'000;
    specs.push_back({.name = "", .scenario = std::move(rv)});
  }
  runner::CollectorSink table;
  const runner::PipelineReport report =
      runner::ExperimentPipeline({.sinks = {&table}}).run(std::move(specs));

  const Graph g = runner::make_graph(graph_id);
  std::cout << "Adversary ablation on a lollipop graph (" << g.summary()
            << "), labels (" << label_a << ", " << label_b << ")\n\n";

  // The per-strategy slice of the sweep table, through the Console sink.
  runner::ConsoleSink console;
  const auto [schema, rows] = runner::select(
      table.last().schema, table.last().rows,
      {"adversary", "status", "cost", "traversals_a", "traversals_b"});
  runner::emit(console, schema, rows);

  std::uint64_t worst = 0;
  for (const runner::ExperimentOutcome& out : report.outcomes) {
    if (out.ok() && out.cost > worst) worst = out.cost;
  }
  const TrajKit kit(PPoly::tiny(), 0x5eed0001);
  const CalibratedPi pi_hat;
  std::cout << "\nworst measured cost        : " << worst << "\n";
  std::cout << "calibrated bound Pi^(n,m)  : " << pi_hat(g.size(), m) << "\n";
  std::cout << "faithful bound Pi(n,m)     : 10^"
            << std::fixed << std::setprecision(1)
            << pi_bound_log10_approx(kit.uxs().p(), g.size(), m)
            << " edge traversals (Theorem 3.1, tiny profile)\n";
  std::cout << "\nThe gap between measured costs and the faithful bound is\n"
               "why the executable harness uses the calibrated bound — see\n"
               "DESIGN.md §2.\n";
  return report.totals.errored == 0 ? 0 : 1;
}
