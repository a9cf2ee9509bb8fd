// Sharded sweep execution — deterministic partitioning of a spec batch
// into K fingerprint shards plus a fork-based multi-process driver
// (DESIGN.md §10).
//
// The coordination substrate is the content-addressed SweepCache itself:
// every worker opens the SAME cache directory, executes only its shard,
// and commits outcomes under spec fingerprints. Because shard_of is a pure
// function of the fingerprint, the shards are disjoint — no two workers
// ever store the same cell, so they share the directory without any
// locking beyond the cache's own private-segment append discipline
// (separate machines pointing at one networked --cache-dir partition the
// same way). Resumption is free: a worker that died mid-shard left its
// committed prefix in the cache, and the re-run serves those cells as hits
// and executes only the remainder — zero committed cells re-execute.
//
// The merge/verify step is deliberately NOT a file-level merge: the caller
// re-runs the full batch through one pipeline against the now-warm cache.
// Pipeline determinism (rows streamed in spec order, outcomes
// round-tripping exactly) then guarantees the merged sink bytes are
// identical to a single-process run — at any shard count — and the re-run
// doubles as the verification that every cell was committed (executed == 0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runner/cache.h"
#include "runner/spec.h"

namespace asyncrv::runner {

/// The shard owning this fingerprint, in [0, shards). Pure and stable:
/// depends only on (fingerprint, shards), so every process — on any
/// machine, in any run — agrees on the partition.
int shard_of(const Fingerprint& fp, int shards);

/// Partitions spec indices by shard_of(specs[i].fingerprint(), shards).
/// plan[k] lists the indices of shard k, each in original batch order.
std::vector<std::vector<std::size_t>> plan_shards(
    const std::vector<ExperimentSpec>& specs, int shards);

/// What one worker did with its shard. Every field but `cells` (the plan's
/// shard size) is a metrics-registry counter of the worker — the registry
/// is the only tally (DESIGN.md §11) — so these always equal the same
/// counters in the worker's snapshot.
struct ShardWorkerStats {
  std::uint64_t cells = 0;     ///< shard size
  std::uint64_t hits = 0;      ///< pipeline.cache_hits: served from cache
  std::uint64_t executed = 0;  ///< pipeline.executed: simulated and stored
  std::uint64_t fsyncs = 0;    ///< sweepcache.fsyncs, the seal's included
  std::uint64_t store_bytes = 0;  ///< sweepcache.store_bytes
};

struct ShardWorkerOptions {
  std::string cache_dir;
  SweepCacheOptions cache;  ///< group-commit cadence (flush_every)
  int threads = 0;          ///< per-worker pipeline threads (0 = hardware)
  bool batch = true;        ///< batched lockstep engine for the misses
  std::size_t batch_size = 256;
  bool progress = false;
  /// Fault injection for the resumption acceptance test: after this many
  /// rows have streamed, flush the cache and SIGKILL the process
  /// (0 = never). Forces threads=1 and explicit-flush-only mode so the
  /// committed prefix is exactly `kill_after` cells, deterministically.
  std::uint64_t kill_after = 0;
};

/// Runs `shard` (indices into `specs`) through a batched pipeline against
/// its own SweepCache object on the shared directory. No sinks (bar the
/// kill_after counter): workers only populate the cache and build no rows;
/// rows are rendered by the merge run. The counted stats are registry
/// deltas across the cache object's whole life (its closing seal included),
/// so nothing else may drive a pipeline or a sweep cache in this process
/// meanwhile.
ShardWorkerStats run_shard(const std::vector<ExperimentSpec>& specs,
                           const std::vector<std::size_t>& shard,
                           const ShardWorkerOptions& options);

struct ShardDriverOptions {
  std::string cache_dir;
  int shards = 4;
  SweepCacheOptions cache;
  int threads_per_worker = 1;
  bool batch = true;
  std::size_t batch_size = 256;
  bool progress = false;
  int kill_worker = -1;        ///< shard index to fault-inject, -1 = none
  std::uint64_t kill_after = 0;///< kill_worker's ShardWorkerOptions::kill_after
};

/// One forked worker's result as the driver saw it.
struct ShardWorkerResult {
  int shard = 0;
  ::pid_t pid = 0;
  int wait_status = 0;  ///< raw waitpid status (WIFEXITED / WIFSIGNALED)
  /// The worker's snapshot arrived and parsed (false for killed or failed
  /// workers, which write none).
  bool reported = false;
  ShardWorkerStats stats;  ///< `cells` from the plan, the rest from `metrics`
  /// The worker's full metrics-registry snapshot (asyncrv.metrics.v1), the
  /// whole content of its pipe. Empty when not `reported`.
  obs::Snapshot metrics;
};

struct ShardRun {
  std::vector<ShardWorkerResult> workers;
  /// Fleet totals: every reporting worker's snapshot merged (counters and
  /// histograms add, gauges high-water) — the cross-process view of the
  /// same registry every in-process layer feeds.
  obs::Snapshot fleet_metrics;
  /// True iff every worker exited 0 — the precondition for merging. A
  /// killed or failed worker leaves holes in the cache; merging anyway
  /// would silently re-execute them in-process, defeating the count
  /// assertions, so drivers must re-run instead.
  bool ok() const;
  std::uint64_t total(std::uint64_t ShardWorkerStats::*field) const;
};

/// Forks one worker process per non-empty shard, each with its own pipe:
/// the worker writes its registry snapshot and _exits (a worker that throws
/// writes none and prints one `error: shard <k>: <what>` line on stderr);
/// the parent reads each pipe to EOF, then reaps its worker. The parent
/// touches neither the cache nor the specs' outcomes — state flows only
/// through the shared cache directory, exactly as it would across machines.
ShardRun run_sharded(const std::vector<ExperimentSpec>& specs,
                     const ShardDriverOptions& options);

}  // namespace asyncrv::runner
