// The pipeline-based workloads: sweep-theorem, sweep-replicas and
// scale-sharded. Each runs a time-bounded loop of cold iterations through
// the real entry points (ExperimentPipeline, run_sharded + a merge pass),
// verifies every iteration's outputs outside the timed region, and — in a
// traced run — replays each iteration layer by layer and demands the
// replay's JSONL be byte-identical to the untraced run's.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench.h"
#include "obs/trace.h"
#include "runner/outcome.h"
#include "runner/shard.h"
#include "util/prng.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace asyncrv::runner;

void SetupTimer::sample(std::size_t min, double until_s) {
  const std::uint64_t start = now_ns();
  for (std::size_t n = 0; n < min || spent_s_ + seconds_since(start) < until_s;
       ++n) {
    teardown_();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    make_();
    wall_.push_back(seconds_since(t0));
    cpu_.push_back(process_cpu_s() - cpu0);
  }
  spent_s_ += seconds_since(start);
}

void end_to_end(Result& r, const std::vector<Window>& windows,
                const SetupTimer& setup) {
  std::vector<double> rate, wall, cpu, ref;
  for (const Window& w : windows) {
    if (w.cells <= 0 || w.seconds <= 0 || w.cpu_s <= 0 || w.ref_s <= 0) {
      continue;
    }
    rate.push_back(w.cells / (w.cpu_s * kNominalReferenceS / w.ref_s));
    r.window_rates.push_back(rate.back());
    wall.push_back(w.cells / w.seconds);
    cpu.push_back(w.cpu_s * 1e3 / w.cells);
    ref.push_back(w.ref_s);
  }
  const double speed = ref.empty() ? 0 : kNominalReferenceS / median(ref);
  r.metric("cells_per_cpu_s", median(rate), "1/s", rate.size());
  r.metric("setup_s", median(setup.cpu_times()) * speed, "s",
           setup.cpu_times().size());
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.detail("cells_per_s", median(wall), "1/s", wall.size());
  r.detail("setup_wall_s", median(setup.wall_times()), "s",
           setup.wall_times().size());
  r.detail("cpu_ms_per_cell", median(cpu), "ms", cpu.size());
  r.detail("core_speed", speed, "ratio", ref.size());
}

namespace {

/// Semantic checks of one outcome: no errors, and for SGL the four
/// applications agree with the team (Theorem 4.1's outputs).
bool outcome_ok(const ExperimentSpec& spec, const ExperimentOutcome& out) {
  if (out.status == RunStatus::Error) return false;
  const SglSpec* sgl = spec.sgl();
  if (!sgl) return true;
  const SglOutcome* res = out.sgl();
  if (!out.ok() || !res) return false;
  const std::uint64_t leader =
      *std::min_element(sgl->labels.begin(), sgl->labels.end());
  for (const std::uint64_t label : sgl->labels) {
    if (res->apps.team_size.at(label) != sgl->labels.size()) return false;
    if (res->apps.leader.at(label) != leader) return false;
    if (res->apps.gossip.at(label).size() != sgl->labels.size()) return false;
  }
  return true;
}


struct PipelineWorkload {
  const char* tag;
  std::function<std::vector<ExperimentSpec>(std::uint64_t)> generate;
  int threads = 0;     ///< PipelineOptions::threads
  bool batch = false;  ///< PipelineOptions::batch
  bool cross_check = false;
};

/// The tracer lane: wall time of re-running `specs` with obs::Tracer on,
/// over the wall time of the same run with it off (run back to back).
/// The JSONL must not change with the tracer on.
double tracer_ratio(const std::vector<ExperimentSpec>& specs,
                    const PipelineOptions& options, const std::string& dir,
                    const std::string& reference, Result& r) {
  double off = 0, on = 0;
  run_pipeline(specs, options, dir + "/tracer-off.jsonl", &off);
  asyncrv::obs::Tracer::global().enable();
  run_pipeline(specs, options, dir + "/tracer-on.jsonl", &on);
  asyncrv::obs::Tracer::global().disable();
  asyncrv::obs::Tracer::global().clear();
  r.check(read_file(dir + "/tracer-on.jsonl") == reference,
          "JSONL differs with obs::Tracer enabled");
  return off > 0 ? on / off : 0;
}

Result run_pipeline_workload(const Options& o, const PipelineWorkload& w) {
  Result r;
  // Set-up: what the run needs before its first iteration — the run
  // directory and iteration 0's specs. The last sample's are the run's.
  struct Staged {
    std::unique_ptr<RunDir> dir;
    std::vector<ExperimentSpec> specs;
  } staged;
  SetupTimer setup(
      [&] {
        staged.dir = std::make_unique<RunDir>(w.tag);
        staged.specs = w.generate(0);
      },
      [&] { staged = {}; });
  setup.sample(kMinSetups, kSetupWindowS);
  const std::unique_ptr<RunDir> dir = std::move(staged.dir);
  std::vector<ExperimentSpec> first = std::move(staged.specs);

  PipelineOptions options;
  options.threads = w.threads;
  options.batch = w.batch;
  const ReplayConfig replay_config{.threads = w.threads, .batch = w.batch};

  Recorder rec(o.trace);
  LayerCounts counts;
  std::vector<Window> windows;
  double busy = 0, traced = 0;
  std::string first_jsonl;
  std::uint64_t mismatches = 0, sampled = 0;
  for (std::uint64_t it = 0;; ++it) {
    const std::vector<ExperimentSpec> specs =
        it == 0 ? std::move(first) : w.generate(it);
    const std::string path = dir->path() + "/run.jsonl";
    const double cpu0 = cpu_seconds();
    double secs = 0;
    const PipelineReport report = run_pipeline(specs, options, path, &secs);
    windows.push_back({static_cast<double>(specs.size()), secs,
                       cpu_seconds() - cpu0, reference_cpu_s()});
    busy += secs;
    r.attempted += specs.size();

    // Untimed: verification.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!outcome_ok(specs[i], report.outcomes[i])) ++r.failed;
    }
    const std::string jsonl = read_file(path);
    if (it == 0) {
      first_jsonl = jsonl;
      r.digest = digest(jsonl);
    }
    if (w.cross_check && it < 4) {
      // A seeded sample of batched cells, re-executed scalar.
      asyncrv::Rng rng(iteration_seed(o.seed, it) ^ 0xc4ec);
      std::vector<std::size_t> sample;
      for (int k = 0; k < 8; ++k) sample.push_back(rng.below(specs.size()));
      mismatches += cross_check(specs, report.outcomes, sample,
                                o.break_crosscheck && it == 0);
      sampled += sample.size();
    }
    if (o.trace) {
      const std::string traced_path = dir->path() + "/replay.jsonl";
      const std::uint64_t t0 = now_ns();
      replay_pipeline(specs, replay_config, rec, it + 1, traced_path, &counts);
      traced += seconds_since(t0);
      const std::string replayed = read_file(traced_path);
      counts.sink_bytes += replayed.size();
      r.check(replayed == jsonl, "traced replay JSONL differs from the "
                                 "untraced run (iteration " +
                                     std::to_string(it) + ")");
    }
    if (busy >= o.seconds) break;
    setup.sample(1, kSetupShare * busy);
    staged = {};
  }
  r.check(mismatches == 0, "batch/scalar cross-check: " +
                               std::to_string(mismatches) + " of " +
                               std::to_string(sampled) + " cells differ");
  r.detail("crosscheck_cells", static_cast<double>(sampled), "count");

  if (!o.trace) {
    end_to_end(r, windows, setup);
    return r;
  }
  LayerExtras x;
  x.overhead_frac = busy > 0 ? (traced - busy) / busy : 0;
  x.tracer_on_ratio = tracer_ratio(w.generate(0), options, dir->path(),
                                   first_jsonl, r);
  layer_metrics(attribute(rec.spans()), counts, x, r);
  write_spans(o.out_dir + "/trace-" + o.workload + ".jsonl", rec.spans(),
              o.meta_json);
  return r;
}

}  // namespace

Result run_theorem(const Options& o) {
  return run_pipeline_workload(
      o, {.tag = "theorem",
          .generate = [&](std::uint64_t it) {
            return theorem_specs(o.seed, it, o.size);
          }});
}

Result run_replicas(const Options& o) {
  return run_pipeline_workload(
      o, {.tag = "replicas",
          .generate = [&](std::uint64_t it) {
            return replica_specs(o.seed, it, o.size);
          },
          .threads = load_width(),
          .batch = true,
          .cross_check = true});
}

Result run_scale(const Options& o) {
  Result r;
  // Set-up: the run directory and iteration 0's specs, as above.
  struct Staged {
    std::unique_ptr<RunDir> dir;
    std::vector<ExperimentSpec> specs;
  } staged;
  SetupTimer setup(
      [&] {
        staged.dir = std::make_unique<RunDir>("scale");
        staged.specs = scale_specs(o.seed, 0, o.size);
      },
      [&] { staged = {}; });
  setup.sample(kMinSetups, kSetupWindowS);
  const std::unique_ptr<RunDir> dir = std::move(staged.dir);
  std::vector<ExperimentSpec> specs = std::move(staged.specs);

  // rv_cli sweep scale --packed-cache: 4 fork-based shards × 1 thread on
  // the packed store, then one merge/verify pipeline pass.
  const int shards = load_width();
  SweepCacheOptions packed;
  packed.packed = true;
  PipelineOptions merge_options;
  merge_options.batch = true;

  Recorder rec(o.trace);
  LayerCounts counts;
  LayerExtras x;
  std::vector<Window> windows;  // cold passes
  std::vector<double> warm_rates;
  double cold = 0, warm = 0, cells = 0, traced_merge = 0;
  double batch_ns = 0, batch_traversals = 0;
  std::uint64_t store_bytes = 0, worker_cells_max = 0, worker_cells_sum = 0;
  std::uint64_t workers = 0;
  for (std::uint64_t it = 0;; ++it) {
    if (it > 0) specs = scale_specs(o.seed, it, o.size);
    const std::string cache_dir = dir->path() + "/cache";
    ShardDriverOptions dopts;
    dopts.cache_dir = cache_dir;
    dopts.shards = shards;
    dopts.cache = packed;
    dopts.threads_per_worker = 1;
    dopts.batch = true;

    // Cold pass (write path).
    const double cpu0 = cpu_seconds();
    std::uint64_t t0 = now_ns();
    ShardRun run;
    {
      const auto root = rec.span("scale", 0, it + 1);
      const auto s = rec.span("shard.run", 0, it + 1,
                              static_cast<std::uint32_t>(shards));
      run = run_sharded(specs, dopts);
      // Each worker's own stage histograms (existing instrumentation,
      // shipped back over the stats pipe) split the shard.run span.
      const std::pair<const char*, const char*> stages[] = {
          {"pipeline.stage.lookup_ns", "cache.lookup"},
          {"pipeline.stage.form_batches_ns", "batch.form"},
          {"pipeline.batch_ns", "batch.run"},
          {"pipeline.cell_ns", "sim.scalar"},
          {"pipeline.store_ns", "cache.store"},
          {"pipeline.stage.flush_ns", "cache.flush"}};
      for (const ShardWorkerResult& wr : run.workers) {
        for (const auto& [hist, tag] : stages) {
          const auto h = wr.metrics.histograms.find(hist);
          if (h == wr.metrics.histograms.end()) continue;
          rec.record(tag, s.id(), it + 1, t0, t0 + h->second.sum);
        }
      }
    }
    const double cold_s = seconds_since(t0);
    windows.push_back({static_cast<double>(specs.size()), cold_s,
                       cpu_seconds() - cpu0, reference_cpu_s()});
    cold += cold_s;
    cells += static_cast<double>(specs.size());
    r.attempted += specs.size();
    const std::uint64_t executed = run.total(&ShardWorkerStats::executed);
    r.check(run.ok(), "a shard worker failed");
    r.check(executed == specs.size(),
            "cold pass executed " + std::to_string(executed) + " of " +
                std::to_string(specs.size()) + " cells");
    store_bytes += run.total(&ShardWorkerStats::store_bytes);
    counts.fsyncs += run.total(&ShardWorkerStats::fsyncs);
    for (const ShardWorkerResult& wr : run.workers) {
      worker_cells_max = std::max(worker_cells_max, wr.stats.cells);
      worker_cells_sum += wr.stats.cells;
      ++workers;
    }
    const auto& fc = run.fleet_metrics.counters;
    const auto fleet = [&](const char* name) -> std::uint64_t {
      const auto c = fc.find(name);
      return c == fc.end() ? 0 : c->second;
    };
    batch_traversals += static_cast<double>(fleet("batch.traversals"));
    counts.graph_builds += fleet("graphcache.builds");
    counts.batch_cells += fleet("pipeline.executed");
    counts.fallback_lanes +=
        fleet("pipeline.executed") - fleet("pipeline.batched_lanes");
    if (const auto h = run.fleet_metrics.histograms.find("pipeline.batch_ns");
        h != run.fleet_metrics.histograms.end()) {
      counts.batches += h->second.count;
      batch_ns += static_cast<double>(h->second.sum);
    }

    // Untimed: the lost-store probe on a fresh cache object.
    LostStoreProbe probe(cache_dir);
    for (const ExperimentSpec& spec : specs) probe(spec);
    const std::uint64_t lost = probe.lost();
    counts.lost_stores += lost;
    r.check(lost == 0, std::to_string(lost) + " committed cells not served "
                                              "by a fresh cache");

    // Merge/verify pass (read path).
    const std::string path = dir->path() + "/merge.jsonl";
    double merge_s = 0;
    PipelineReport report;
    {
      t0 = now_ns();
      SweepCache cache(cache_dir, packed);
      PipelineOptions popts = merge_options;
      popts.cache = &cache;
      double run_s = 0;
      report = run_pipeline(specs, popts, path, &run_s);
      merge_s = seconds_since(t0);
    }
    warm += merge_s;
    warm_rates.push_back(static_cast<double>(specs.size()) / merge_s);
    r.check(report.executed == 0, "merge pass executed " +
                                      std::to_string(report.executed) +
                                      " cells");
    for (const ExperimentOutcome& out : report.outcomes) {
      if (out.status == RunStatus::Error) ++r.failed;
    }
    const std::string jsonl = it == 0 || o.trace ? read_file(path) : "";
    if (it == 0) r.digest = digest(jsonl);

    if (o.trace) {
      const std::string traced_path = dir->path() + "/replay.jsonl";
      const std::uint64_t t1 = now_ns();
      std::unique_ptr<SweepCache> cache;
      {
        const auto s = rec.span("cache.open", 0, it + 1);
        cache = std::make_unique<SweepCache>(cache_dir, packed);
      }
      replay_pipeline(specs, {.batch = true, .cache = cache.get()}, rec, it + 1,
                      traced_path, &counts);
      cache.reset();
      traced_merge += seconds_since(t1);
      const std::string replayed = read_file(traced_path);
      counts.sink_bytes += replayed.size();
      r.check(replayed == jsonl, "traced merge JSONL differs from the "
                                 "untraced merge (iteration " +
                                     std::to_string(it) + ")");
    }
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
    if (cold + warm >= o.seconds) break;
    setup.sample(1, kSetupShare * (cold + warm));
    staged = {};
  }
  r.detail("warm_cells_per_s", median(warm_rates), "1/s", warm_rates.size());
  r.detail("store_bytes_per_cell",
           cells > 0 ? static_cast<double>(store_bytes) / cells : 0, "bytes",
           static_cast<std::uint64_t>(cells));
  r.detail("lost_stores", static_cast<double>(counts.lost_stores), "count");

  if (!o.trace) {
    end_to_end(r, windows, setup);
    return r;
  }
  x.overhead_frac = warm > 0 ? (traced_merge - warm) / warm : 0;
  x.shard_imbalance =
      worker_cells_sum > 0 ? static_cast<double>(worker_cells_max) *
                                 static_cast<double>(workers) /
                                 static_cast<double>(worker_cells_sum)
                           : 0;
  x.batch_ns_per_traversal =
      batch_traversals > 0 ? batch_ns / batch_traversals : 0;

  // Tracer lane: the cold pass has the highest span rate (one cache.store
  // span per cell in every worker).
  {
    const std::vector<ExperimentSpec> lane = scale_specs(o.seed, 0, o.size);
    ShardDriverOptions dopts;
    dopts.shards = shards;
    dopts.cache = packed;
    dopts.threads_per_worker = 1;
    dopts.batch = true;
    dopts.cache_dir = dir->path() + "/lane-off";
    std::uint64_t t0 = now_ns();
    run_sharded(lane, dopts);
    const double off = seconds_since(t0);
    dopts.cache_dir = dir->path() + "/lane-on";
    asyncrv::obs::Tracer::global().enable();
    t0 = now_ns();
    run_sharded(lane, dopts);
    const double on = seconds_since(t0);
    asyncrv::obs::Tracer::global().disable();
    asyncrv::obs::Tracer::global().clear();
    x.tracer_on_ratio = off > 0 ? on / off : 0;
  }
  layer_metrics(attribute(rec.spans()), counts, x, r);
  write_spans(o.out_dir + "/trace-" + o.workload + ".jsonl", rec.spans(),
              o.meta_json);
  return r;
}

}  // namespace perfbench
