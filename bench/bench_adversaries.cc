// Experiment E9 — adversary ablation (the asynchrony model of Section 1).
//
// The same agent pair runs against every adversary strategy on every graph
// of the small battery. The paper's guarantee is schedule-independent; the
// tables show how much each schedule actually hurts (cost dispersion), with
// the greedy meeting-avoider as the empirically harshest schedule.
//
// The full graph × adversary cross product is described as ExperimentSpecs
// and executed by the ExperimentPipeline; every table — the graph ×
// adversary cost matrix, the per-adversary rollup, and the optional
// CSV/JSONL row dumps — is emitted through result sinks from the
// (deterministic, spec-ordered) report. Supports the shared sweep flags
// (--csv/--jsonl/--cache-dir/--threads).
#include <iostream>

#include "runner/cli.h"
#include "runner/registry.h"

int main(int argc, char** argv) {
  using namespace asyncrv;
  runner::PipelineCli cli;
  if (!cli.parse_flags_only("bench_adversaries", argc, argv)) return 1;

  runner::banner("E9 (bench_adversaries)", "Adversary model ablation",
                 "meeting cost per adversary strategy, labels (9, 14)");

  // The shared E9 battery definition (runner/registry.h) — the same specs
  // `rv_cli daemon sweep e9` submits, so daemon and batch runs fingerprint
  // (and cache) identically.
  runner::PipelineOptions opts = cli.options();
  runner::CollectorSink table;
  opts.sinks.push_back(&table);
  const runner::PipelineReport report =
      runner::ExperimentPipeline(opts).run(runner::e9_battery());
  const auto& [sweep, sweep_rows] = table.last();

  runner::ConsoleSink console;
  const runner::Pivot matrix =
      runner::pivot(sweep, sweep_rows, "graph", "adversary",
                    runner::cost_or_status(sweep));
  runner::emit(console, matrix.schema, matrix.rows);

  std::cout << "\nper-adversary rollup (max_met_cost = worst schedule damage "
               "among meetings):\n";
  const auto [schema, rows] = runner::group_table(
      "adversary", runner::group_by(sweep, sweep_rows, "adversary"));
  runner::emit(console, schema, rows);

  std::cout << "\n" << report.summary() << "\n";
  if (cli.has_cache()) {
    std::cout << "cache: " << report.cache_hits << " hits, " << report.executed
              << " executed\n";
  }
  std::cout << "graphs: " << report.graph_stats.builds << " built, "
            << report.graph_stats.hits << " interned hits, "
            << report.graph_stats.evictions << " evicted; resident "
            << report.graph_stats.resident_bytes << " bytes (peak "
            << report.graph_stats.resident_bytes_hwm
            << ") — one construction per distinct topology\n";
  std::cout << "\nMeetings under every schedule — the guarantee is schedule-"
               "independent, the cost is not.\n";
  return report.totals.errored == 0 ? 0 : 1;
}
