// Scenario: software agents meeting in an anonymous token-ring network.
//
// The paper's motivating setting — two software agents injected into a
// network whose nodes expose no identities, moving at speeds dictated by
// network congestion (the adversary). This example sweeps ring sizes and
// adversary strategies as one ExperimentPipeline batch (executed across a
// thread pool) and prints a cost matrix through the Console sink,
// illustrating the paper's polynomial-cost guarantee in the scenario its
// introduction motivates.
//
// Like every pipeline tool it accepts the shared sweep flags — e.g.
//   ./build/ring_rendezvous --jsonl sweep.jsonl --cache-dir .sweep-cache
// writes the machine-readable rows and makes a re-run serve every cell
// from the persistent cache (byte-identical output, zero simulations).
#include <cstdint>
#include <iostream>

#include "runner/cli.h"
#include "runner/registry.h"

int main(int argc, char** argv) {
  using namespace asyncrv;
  runner::PipelineCli cli;
  if (!cli.parse_flags_only("ring_rendezvous", argc, argv)) return 1;

  const std::uint64_t label_a = 6, label_b = 17;

  std::vector<runner::ExperimentSpec> specs;
  for (Node n : {Node{4}, Node{6}, Node{8}, Node{10}}) {
    for (const std::string& adv : adversary_battery_names()) {
      runner::RendezvousSpec rv;
      rv.graph = "ring:" + std::to_string(n);
      rv.adversary = adv;
      rv.seed = runner::battery_seed(adv, 2024);
      rv.labels = {label_a, label_b};
      rv.starts = {0, n / 2};
      rv.budget = 20'000'000;
      specs.push_back({.name = "", .scenario = std::move(rv)});
    }
  }

  runner::PipelineOptions opts = cli.options();
  runner::CollectorSink table;
  opts.sinks.push_back(&table);
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(std::move(specs));
  const auto& [schema, rows] = table.last();

  std::cout << "Asynchronous rendezvous on anonymous rings, labels ("
            << label_a << ", " << label_b << ")\n";
  runner::ConsoleSink console;
  const runner::Pivot matrix =
      runner::pivot(schema, rows, "graph", "adversary",
                    runner::cost_or_status(schema, "-"));
  runner::emit(console, matrix.schema, matrix.rows);

  std::cout << "\n" << report.summary() << "\n";
  if (cli.has_cache()) {
    std::cout << "cache: " << report.cache_hits << " hits, " << report.executed
              << " executed\n";
  }
  return report.totals.errored == 0 ? 0 : 1;
}
