// Experiment E7 — the headline claim: cost drops from exponential (in the
// graph size and the larger label, [17]) to polynomial (in the size and the
// *length* of the smaller label).
//
// Two views regenerate the claim:
//  (1) worst-case route length of the naive baseline vs the faithful bound
//      Π(n, m) of RV-asynch-poly as the label grows: the baseline's log-
//      cost grows LINEARLY in L (i.e. exponentially in the label), while
//      Π grows only with log L;
//  (2) measured meeting costs of both algorithms under the same adversary,
//      where the baseline is additionally GIVEN the graph size n (the new
//      algorithm needs no such knowledge). Both arms of every label pair
//      are ExperimentSpecs (RouteAlgo::Baseline vs RouteAlgo::RvAsynchPoly)
//      executed in one ExperimentPipeline batch; both tables are emitted
//      through result sinks. Supports --csv/--jsonl/--cache-dir/--threads.
#include <iostream>

#include "runner/cli.h"
#include "rv/baseline.h"
#include "rv/label.h"
#include "rv/pi_bound.h"
#include "traj/lengths_approx.h"
#include "traj/traj.h"

int main(int argc, char** argv) {
  using namespace asyncrv;
  runner::PipelineCli cli;
  if (!cli.parse_flags_only("bench_rv_vs_baseline", argc, argv)) return 1;

  runner::banner("E7 (bench_rv_vs_baseline)",
                 "Headline: exponential -> polynomial cost",
                 "naive (R Rbar)^{(2P(n)+1)^L} vs Algorithm RV-asynch-poly");

  const TrajKit kit(PPoly::tiny(), 0x5eed0001);
  const LengthCalculus& c = kit.lengths();
  const std::uint64_t n = 4;
  runner::ConsoleSink console;

  std::cout << "(1) worst-case guarantees, n = " << n
            << " (log10 of traversals):\n";
  {
    const runner::Schema schema = {{"label L", runner::ColumnType::U64},
                                   {"|L|", runner::ColumnType::U64},
                                   {"baseline (exp in L)", runner::ColumnType::F64},
                                   {"Pi(n,|L|) (poly)", runner::ColumnType::F64}};
    std::vector<runner::Row> rows;
    for (std::uint64_t lab : {2ULL, 8ULL, 64ULL, 4096ULL, 1ULL << 24, 1ULL << 48}) {
      const auto m = static_cast<std::uint64_t>(label_length(lab));
      rows.push_back({lab, m, baseline_route_length_log10(c, n, lab),
                      pi_bound_log10_approx(kit.uxs().p(), n, m)});
    }
    runner::emit(console, schema, rows);
  }
  std::cout << "  -> baseline log-cost doubles when |L| grows by one bit "
               "(doubly exponential in |L|); Pi grows polynomially in |L|.\n";

  std::cout << "\n(2) measured cost to meet on ring(4), stalled-partner "
               "schedule:\n";

  // Partner stalled (practically forever) => the mover must grind through
  // its schedule until it happens to sweep the other agent.
  const std::string stall_forever =
      "stall:1:" + std::to_string(std::uint64_t{1} << 62);

  std::vector<runner::ExperimentSpec> specs;
  for (const auto& [la, lb] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {1, 2}, {3, 5}, {6, 11}, {13, 22}}) {
    for (const runner::RouteAlgo algo :
         {runner::RouteAlgo::Baseline, runner::RouteAlgo::RvAsynchPoly}) {
      runner::RendezvousSpec rv;
      rv.graph = "ring:4";
      rv.adversary = stall_forever;
      rv.algo = algo;
      rv.labels = {la, lb};
      rv.starts = {0, 2};
      rv.budget = 100'000'000;
      specs.push_back({.name = "", .scenario = std::move(rv)});
    }
  }
  runner::PipelineOptions opts = cli.options();
  runner::CollectorSink table;
  opts.sinks.push_back(&table);
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(std::move(specs));
  const auto& [schema, rows] = table.last();

  const runner::Pivot arms = runner::pivot(schema, rows, "labels", "algo",
                                           runner::cost_or_status(schema));
  runner::emit(console, arms.schema, arms.rows);

  std::cout << "\nBoth meet under this schedule; the separation is in the "
               "worst-case guarantee above, where the baseline must be "
               "prepared to walk (2P(n)+1)^L full explorations while Pi "
               "depends only on |L| = log L.\n";
  return report.totals.errored == 0 ? 0 : 1;
}
