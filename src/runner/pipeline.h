// ExperimentPipeline — the typed, cached, parallel sweep executor.
//
// The pipeline turns a batch of ExperimentSpecs into a PipelineReport:
//
//   specs -> fingerprints -> cache lookups -> thread-pooled execution of
//   the misses -> cache stores -> typed result rows -> sinks + aggregates.
//
// Every scenario is a pure function of its spec, outcomes are committed
// (stored, then streamed) and reported in spec order, and cached outcomes
// round-trip exactly — so the report (including every byte a sink
// receives) is identical for every thread count and for any cold/warm cache
// split of the same batch, and so are the cache segment bytes of a cold
// run. tests/pipeline_test.cc, tests/cache_test.cc and tests/pack_test.cc
// enforce these properties.
//
// Aggregation lives here, not in the harnesses: the report carries overall
// totals (errored scenarios excluded from cost aggregates — they ran no
// meaningful simulation) and computes per-column group rollups on demand
// (group_by("adversary") is E9's "worst cost per adversary" table).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/cache.h"
#include "runner/graph_cache.h"
#include "runner/outcome.h"
#include "runner/sink.h"
#include "runner/spec.h"

namespace asyncrv::runner {

/// Rollup over one group of scenarios (or the whole batch).
struct GroupStats {
  std::string key;  ///< rendered group value; "all" for the batch total
  std::uint64_t scenarios = 0;
  std::uint64_t succeeded = 0;   ///< met / completed
  std::uint64_t unresolved = 0;  ///< ran but no meeting / completion
  std::uint64_t errored = 0;     ///< threw (bad spec, internal failure)
  // Cost aggregates over non-errored scenarios only.
  std::uint64_t total_cost = 0;
  std::uint64_t max_cost = 0;
  /// Max cost over SUCCEEDED scenarios only — "worst observed meeting",
  /// not polluted by the burned budget of unresolved cells.
  std::uint64_t max_met_cost = 0;
};

/// The schema of the per-scenario sweep table every sink receives.
Schema sweep_schema();

/// The sweep-table row of one (spec, outcome) pair.
Row sweep_row(const ExperimentSpec& spec, const ExperimentOutcome& outcome);

struct PipelineReport {
  std::vector<ExperimentSpec> specs;
  std::vector<ExperimentOutcome> outcomes;  ///< index-aligned with specs

  /// The typed table emitted to the sinks (sweep_schema / one sweep_row per
  /// scenario, in spec order).
  Schema schema;
  std::vector<Row> rows;

  GroupStats totals;             ///< whole-batch rollup (key "all")
  std::uint64_t cache_hits = 0;  ///< outcomes served from the sweep cache
  std::uint64_t executed = 0;    ///< outcomes actually simulated
  /// Of `executed`, the outcomes produced by the batched lockstep engine
  /// (PipelineOptions::batch); the rest ran scalar — non-rendezvous kinds,
  /// cells the batch path could not set up, and batch-mode-off runs.
  std::uint64_t batched = 0;

  /// Interning stats of the graph cache the run resolved topologies
  /// through — a snapshot taken after the batch, so for a fresh cache
  /// builds == distinct topologies among the executed scenarios and
  /// hits == executions - builds. (With a caller-provided cache the
  /// counters are cumulative across runs.)
  GraphCache::Stats graph_stats;

  /// One-line "N scenarios: S ok, U unresolved, E errors, total cost C".
  std::string summary() const;

  /// Rollups keyed by a sweep-table column ("graph", "adversary", "algo",
  /// ...), in first-appearance order.
  std::vector<GroupStats> group_by(const std::string& column) const;
};

/// (schema, rows) rendering of rollups, for any sink. `key_name` labels the
/// first column (e.g. "adversary").
std::pair<Schema, std::vector<Row>> group_table(
    const std::string& key_name, const std::vector<GroupStats>& groups);

struct PipelineOptions {
  /// Worker threads; 0 = hardware concurrency (at least 1). The batch is
  /// additionally capped to one thread per cache-missing scenario.
  int threads = 0;
  /// Sinks that receive the sweep table (non-owning; may be empty).
  std::vector<ResultSink*> sinks;
  /// Optional persistent sweep cache (non-owning). Hits skip execution;
  /// misses are executed and stored back.
  const SweepCache* cache = nullptr;
  /// Graph interning cache shared by every worker (non-owning). When null
  /// the pipeline uses a run-local cache — either way each distinct
  /// topology is constructed exactly once per batch. Pass one to share
  /// interned instances (and accumulate stats) across runs.
  GraphCache* graph_cache = nullptr;
  /// Execute cache-missing rendezvous cells on the batched lockstep engine
  /// (sim/batch_engine.h, DESIGN.md §8): cells are grouped by topology and
  /// advanced hundreds at a time over structure-of-arrays state, sharing
  /// interned graphs and materialized routes. Outcomes (and every sink
  /// byte) are bit-identical to the scalar path — other spec kinds, and
  /// any cell the batch path cannot set up, fall back to scalar execution
  /// automatically. Cache hits are served in phase 1 as always, so a warm
  /// sweep forms zero batches.
  bool batch = false;
  /// Max lanes per formed batch (batch mode only).
  std::size_t batch_size = 256;
  /// Print a throttled cells/sec + ETA line to stderr as outcomes land
  /// (served or executed). Off by default — stderr chatter only; the
  /// report and every sink byte are unaffected either way.
  bool progress = false;
  /// Streamed per-outcome callback, invoked once per scenario in spec
  /// order (cache hits included) as soon as it and every earlier scenario
  /// have finished or been loaded; calls are serialized. Each executed
  /// outcome is stored to the cache before its callback, so a callback
  /// sees a committed prefix. A throw is contained and marks the outcome
  /// errored — after the outcome was cached, so environmental callback
  /// failures never poison the cache.
  std::function<void(const ExperimentSpec&, const ExperimentOutcome&)>
      on_outcome;
};

class ExperimentPipeline {
 public:
  explicit ExperimentPipeline(PipelineOptions options = {})
      : options_(std::move(options)) {}

  /// Executes the whole batch and returns the aggregated report.
  PipelineReport run(std::vector<ExperimentSpec> specs) const;

 private:
  PipelineOptions options_;
};

}  // namespace asyncrv::runner
