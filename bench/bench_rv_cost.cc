// Experiment E6 — Theorem 3.1: rendezvous cost is polynomial in the graph
// size n and in the length of the smaller label.
//
// Two sweeps regenerate the theorem's shape:
//   (a) cost vs n on rings and paths (fixed labels), per adversary class;
//   (b) cost vs |L_min| on a fixed graph (labels with growing bit-length).
// Absolute numbers are simulator-specific; the claim reproduced is the
// polynomial (slowly growing) shape in both parameters. Both sweeps are one
// ExperimentPipeline batch (historical battery seeds preserved via
// battery_seed); tables are emitted through result sinks. Supports
// --csv/--jsonl/--cache-dir/--threads.
#include <iostream>

#include "runner/cli.h"
#include "runner/registry.h"
#include "rv/label.h"

int main(int argc, char** argv) {
  using namespace asyncrv;
  runner::PipelineCli cli;
  if (!cli.parse_flags_only("bench_rv_cost", argc, argv)) return 1;

  runner::banner("E6 (bench_rv_cost)",
                 "Theorem 3.1: cost polynomial in n and |L_min|",
                 "(a) cost vs n; (b) cost vs label length; per adversary");

  // One batch for both sweeps; section boundaries are index ranges.
  std::vector<runner::ExperimentSpec> specs;

  // (a) graph family × size × adversary battery, labels (6, 17), starts
  // {0, n/2} — the historical harness placement and battery seeds.
  const std::vector<Node> sizes = {Node{4}, Node{6}, Node{8}, Node{12}};
  for (Node n : sizes) {
    for (const char* family : {"ring", "path"}) {
      for (const std::string& adv : adversary_battery_names()) {
        runner::RendezvousSpec rv;
        rv.graph = std::string(family) + ":" + std::to_string(n);
        rv.adversary = adv;
        rv.labels = {6, 17};
        rv.starts = {0, n / 2};
        rv.budget = 80'000'000;
        rv.seed = runner::battery_seed(adv, 1234);
        specs.push_back({.name = "", .scenario = std::move(rv)});
      }
    }
  }
  const std::size_t part_b_begin = specs.size();

  // (b) growing label length on ring(6): smaller label = 2^b + 1.
  for (int b = 1; b <= 12; b += 2) {
    const std::uint64_t la = (std::uint64_t{1} << b) + 1;
    const std::uint64_t lb = (std::uint64_t{1} << (b + 2)) + 3;
    for (const auto& [adv, seed] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"random", 77}, {"stall:0:3000", 0}}) {
      runner::RendezvousSpec rv;
      rv.graph = "ring:6";
      rv.adversary = adv;
      rv.labels = {la, lb};
      rv.starts = {0, 3};
      rv.budget = 80'000'000;
      rv.seed = seed;
      // Label the row by bit-length so the pivot below groups by |L_min|.
      specs.push_back({.name = "|L|=" + std::to_string(label_length(la)) +
                               " L=" + std::to_string(la),
                       .scenario = std::move(rv)});
    }
  }

  const runner::PipelineReport report =
      runner::ExperimentPipeline(cli.options()).run(std::move(specs));

  runner::ConsoleSink console;
  const auto cost_or_status = runner::cost_or_status(report.schema);
  const auto rows_slice = [&report](std::size_t begin, std::size_t end) {
    return std::vector<runner::Row>(report.rows.begin() +
                                        static_cast<std::ptrdiff_t>(begin),
                                    report.rows.begin() +
                                        static_cast<std::ptrdiff_t>(end));
  };

  std::cout << "(a) cost vs n, labels (6, 17):\n";
  const runner::Pivot by_size =
      runner::pivot(report.schema, rows_slice(0, part_b_begin), "graph",
                    "adversary", cost_or_status);
  runner::emit(console, by_size.schema, by_size.rows);

  std::cout << "\n(b) cost vs |L_min| on ring(6) (smaller label = 2^b + 1):\n";
  const runner::Pivot by_label =
      runner::pivot(report.schema, rows_slice(part_b_begin, report.rows.size()),
                    "name", "adversary", cost_or_status);
  runner::emit(console, by_label.schema, by_label.rows);

  std::cout << "\n" << report.summary() << "\n";
  std::cout << "\nShape check: costs grow slowly (polynomially) in both n and "
               "|L_min| — no exponential blow-up in either parameter.\n";
  return report.totals.errored == 0 ? 0 : 1;
}
