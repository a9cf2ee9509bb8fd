// Million-cell sweep benchmark — the tracked store-throughput surface of
// the sharded packed sweep cache (DESIGN.md §10).
//
// Two lanes over the scale_grid family (tiny-budget rendezvous cells, so
// the sweep is store-bound — exactly the regime the packed store exists
// for):
//
//   packed/cold  — the FULL grid through the fork-based shard driver, K
//                  workers appending to pack segments in one shared cache
//                  directory with group-commit fsync;
//   packed/warm  — the full grid again, single process, against the now-
//                  populated cache: must execute ZERO cells (resumption /
//                  merge-verify path; also measures hit-serving rate).
//
// The cold lane must execute every cell and the warm lane none, or the run
// exits non-zero.
//
// --json <path> emits BENCH_sweep.json (schema asyncrv.bench_sweep.v1:
// scenario, cells, seconds, cells_per_sec, fsyncs, store_bytes, shards,
// git rev). --quick shrinks 10^6 -> 20'000 cells for smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_rev.h"
#include "runner/cache.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "runner/shard.h"

namespace asyncrv {
namespace {

using Clock = std::chrono::steady_clock;

struct LaneResult {
  std::string scenario;
  std::uint64_t cells = 0;
  double seconds = 0.0;
  double cells_per_sec = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t store_bytes = 0;
  int shards = 1;
};

LaneResult finish(std::string scenario, std::uint64_t cells, double seconds,
                  std::uint64_t fsyncs, std::uint64_t store_bytes,
                  int shards) {
  LaneResult r;
  r.scenario = std::move(scenario);
  r.cells = cells;
  r.seconds = seconds;
  r.cells_per_sec =
      seconds > 0.0 ? static_cast<double>(cells) / seconds : 0.0;
  r.fsyncs = fsyncs;
  r.store_bytes = store_bytes;
  r.shards = shards;
  return r;
}

double elapsed_seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void write_json(const std::string& path, const std::string& rev,
                const std::vector<LaneResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"asyncrv.bench_sweep.v1\",\n");
  std::fprintf(f, "  \"git_rev\": \"%s\",\n  \"results\": [\n", rev.c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LaneResult& r = results[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"cells\": %llu, \"seconds\": %.6f, "
        "\"cells_per_sec\": %.1f, \"fsyncs\": %llu, \"store_bytes\": %llu, "
        "\"shards\": %d}%s\n",
        r.scenario.c_str(), static_cast<unsigned long long>(r.cells),
        r.seconds, r.cells_per_sec,
        static_cast<unsigned long long>(r.fsyncs),
        static_cast<unsigned long long>(r.store_bytes), r.shards,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void print_result(const LaneResult& r) {
  std::printf("%-22s %10llu cells %9.2fs %12.0f cells/sec %8llu fsyncs %10.1f MB\n",
              r.scenario.c_str(), static_cast<unsigned long long>(r.cells),
              r.seconds, r.cells_per_sec,
              static_cast<unsigned long long>(r.fsyncs),
              static_cast<double>(r.store_bytes) / (1024.0 * 1024.0));
}

}  // namespace
}  // namespace asyncrv

int main(int argc, char** argv) {
  using namespace asyncrv;
  std::uint64_t cells = 1'000'000;
  int shards = 4;
  std::string json_path;
  std::string dir = ".bench-sweep-cache";
  bool keep = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--cells") {
      cells = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--shards") {
      shards = std::atoi(value().c_str());
    } else if (arg == "--dir") {
      dir = value();
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_sweep_scale [--cells <n>] [--shards <k>] "
                   "[--dir <path>] [--json <path>] [--keep] [--quick]\n";
      return 1;
    }
  }
  if (quick) cells = std::min<std::uint64_t>(cells, 20'000);
  if (shards < 1 || cells == 0) {
    std::cerr << "bad --cells/--shards\n";
    return 1;
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // always start cold
  const std::string packed_dir = dir + "/packed";

  std::vector<LaneResult> results;
  std::printf("sweep-scale: %llu cells, %d shards\n\n",
              static_cast<unsigned long long>(cells), shards);

  // Lane 1 — packed/cold: the full grid through the fork-based shard
  // driver, every worker appending to its own pack segment in one shared
  // directory with group-commit fsync.
  {
    const auto specs = runner::scale_grid(cells);
    runner::ShardDriverOptions dopts;
    dopts.cache_dir = packed_dir;
    dopts.shards = shards;
    dopts.threads_per_worker = 1;
    dopts.batch = true;
    const auto t0 = Clock::now();
    const runner::ShardRun run = runner::run_sharded(specs, dopts);
    const double dt = elapsed_seconds(t0);
    if (!run.ok()) {
      std::cerr << "FAIL: a shard worker failed\n";
      return 1;
    }
    const std::uint64_t executed =
        run.total(&runner::ShardWorkerStats::executed);
    if (executed != cells) {
      std::cerr << "FAIL: packed/cold expected to execute every cell, got "
                << executed << "\n";
      return 1;
    }
    results.push_back(
        finish("packed/cold", cells, dt,
               run.total(&runner::ShardWorkerStats::fsyncs),
               run.total(&runner::ShardWorkerStats::store_bytes), shards));
    print_result(results.back());
  }

  // Lane 2 — packed/warm: the merge/verify pass. One process, the whole
  // grid, zero executions allowed — every cell must come out of the pack
  // segments the workers committed.
  {
    const auto specs = runner::scale_grid(cells);
    const auto t0 = Clock::now();
    std::uint64_t hits = 0, executed = 0;
    {
      const runner::SweepCache cache(packed_dir);
      runner::PipelineOptions popts;
      popts.threads = 1;
      popts.batch = true;
      popts.cache = &cache;
      const auto report = runner::ExperimentPipeline(popts).run(specs);
      hits = report.cache_hits;
      executed = report.executed;
    }
    results.push_back(
        finish("packed/warm", cells, elapsed_seconds(t0), 0, 0, 1));
    print_result(results.back());
    if (executed != 0 || hits != cells) {
      std::cerr << "FAIL: warm sweep executed " << executed << " cells ("
                << hits << " hits) — resumption contract broken\n";
      return 1;
    }
  }

  const std::string rev = bench::git_rev();
  if (!json_path.empty()) {
    bench::warn_if_stale(json_path, rev);
    write_json(json_path, rev, results);
    std::printf("wrote %s (git_rev %s)\n", json_path.c_str(), rev.c_str());
  }
  if (!keep) std::filesystem::remove_all(dir, ec);
  return 0;
}
