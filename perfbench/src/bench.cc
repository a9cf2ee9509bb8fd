#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "runner/outcome.h"
#include "runner/sink.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace asyncrv::runner;

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  }
  return total;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

RunDir::RunDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  path_ = ".bench_run/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::remove(".bench_run", ec);  // only succeeds once empty
}

unsigned pool_width(int threads, std::size_t jobs) {
  unsigned n = threads > 0 ? static_cast<unsigned>(threads)
                           : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  if (n > jobs) n = static_cast<unsigned>(jobs);
  return n;
}

double reference_cpu_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x) & 0xffff;
    }
    return t;
  }();
  timespec a{}, b{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (std::uint64_t s = 0; s < 2'000'000; ++s) {
    at = next[at ^ (acc & 7)];
    acc += at % 3 == 0 ? at : acc >> 3;
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
  static volatile std::uint64_t sink;
  sink = acc;  // keeps the walk from being optimized away
  return static_cast<double>(b.tv_sec - a.tv_sec) +
         static_cast<double>(b.tv_nsec - a.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

int load_width() {
  return static_cast<int>(pool_width(0, 4));
}

PipelineReport run_pipeline(const std::vector<ExperimentSpec>& specs,
                            PipelineOptions options,
                            const std::string& jsonl_path, double* seconds) {
  JsonlSink sink(jsonl_path);
  options.sinks.push_back(&sink);
  std::vector<ExperimentSpec> copy = specs;
  const std::uint64_t t0 = now_ns();
  PipelineReport report = ExperimentPipeline(options).run(std::move(copy));
  *seconds = seconds_since(t0);
  return report;
}

std::vector<ExperimentOutcome> replay_pipeline(
    const std::vector<ExperimentSpec>& specs, const ReplayConfig& config,
    Recorder& rec, std::uint64_t request, const std::string& jsonl_path,
    LayerCounts* counts) {
  const auto root = rec.span("replay", 0, request);
  std::vector<ExperimentOutcome> outcomes(specs.size());
  counts->cells += specs.size();

  // The sweep-cache key of every cell (the pipeline derives it inside
  // lookup/store/sweep_row; the replay times it on its own).
  for (const ExperimentSpec& spec : specs) {
    const auto s = rec.span("spec.fingerprint");
    (void)spec.fingerprint();
  }
  counts->fingerprints += specs.size();

  // Phase 1 — serve what the cache knows.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (config.cache) {
      const auto s = rec.span("cache.lookup");
      ++counts->lookups;
      if (auto hit = config.cache->lookup(specs[i])) {
        hit->index = i;
        outcomes[i] = std::move(*hit);
        ++counts->hits;
        continue;
      }
    }
    misses.push_back(i);
  }

  // Phase 2 — batch formation and the pool.
  std::vector<std::size_t> scalar;
  std::vector<SpecBatch> batches;
  if (config.batch) {
    const auto s = rec.span("batch.form");
    batches = form_batches(specs, misses, PipelineOptions{}.batch_size, &scalar);
  } else {
    scalar = misses;
  }
  const std::size_t n_jobs = batches.size() + scalar.size();
  const unsigned width = pool_width(config.threads, n_jobs);
  std::atomic<std::uint64_t> batched_lanes{0};
  // One graph cache for the run, shared by the pool as the pipeline's is.
  // Each job resolves its graph in its own span right before the engine
  // call (which then hits the cache), so builds overlap other jobs exactly
  // as they do inside ExperimentPipeline::run.
  GraphCache graphs;
  const auto resolve = [&](std::size_t i) {
    const ExperimentSpec& spec = specs[i];
    const std::string& id = spec.rendezvous() ? spec.rendezvous()->graph
                            : spec.sgl()      ? spec.sgl()->graph
                                              : spec.search()->graph;
    const auto s = rec.span("graph.resolve");
    try {
      (void)graphs.resolve(id);
    } catch (const std::exception&) {
      // The engine call reports the same failure on the outcome.
    }
  };
  {
    const auto pool = rec.span("pool", 0, request, std::max(1u, width));
    const std::uint64_t pool_id = pool.id();
    std::atomic<std::size_t> next{0};
    const auto store = [&](std::size_t i) {
      if (!config.cache || outcomes[i].transient_error) return;
      const auto s = rec.span("cache.store");
      config.cache->store(specs[i], outcomes[i]);
    };
    const auto worker = [&]() {
      asyncrv::sim::EngineScratch scratch;
      while (true) {
        const std::size_t j = next.fetch_add(1);
        if (j >= n_jobs) return;
        if (j < batches.size()) {
          const auto job = rec.span("job", pool_id, request);
          resolve(batches[j].indices.front());
          {
            const auto s = rec.span("batch.run");
            batched_lanes += run_spec_batch(specs, batches[j], &scratch,
                                            &graphs, outcomes.data());
          }
          for (const std::size_t i : batches[j].indices) store(i);
          continue;
        }
        const std::size_t i = scalar[j - batches.size()];
        const auto job = rec.span("job", pool_id, request);
        resolve(i);
        {
          const auto s = rec.span(specs[i].sgl() ? "sgl.run" : "sim.scalar");
          ExperimentOutcome out = run_experiment(specs[i], &scratch, &graphs);
          out.index = i;
          outcomes[i] = std::move(out);
        }
        store(i);
      }
    };
    if (width <= 1) {
      worker();
    } else {
      std::vector<std::thread> threads;
      for (unsigned t = 0; t < width; ++t) threads.emplace_back(worker);
      for (std::thread& t : threads) t.join();
    }
  }
  if (config.cache) {
    const auto s = rec.span("cache.flush");
    config.cache->flush();
  }

  // Work counts, from the outcomes.
  std::vector<bool> in_batch(specs.size(), false);
  std::uint64_t batch_cells = 0;
  for (const SpecBatch& b : batches) {
    for (const std::size_t i : b.indices) in_batch[i] = true;
    batch_cells += b.indices.size();
  }
  counts->batches += batches.size();
  counts->batch_cells += batch_cells;
  counts->fallback_lanes += batch_cells - batched_lanes.load();
  for (const std::size_t i : misses) {
    const std::uint64_t cost = outcomes[i].cost;
    if (specs[i].sgl()) counts->sgl_traversals += cost;
    else if (in_batch[i]) counts->batch_traversals += cost;
    else counts->scalar_traversals += cost;
  }
  const GraphCache::Stats gs = graphs.stats();
  counts->graph_builds += gs.builds;
  counts->graph_resident_mb = std::max(
      counts->graph_resident_mb,
      static_cast<double>(gs.resident_bytes_hwm) / (1024.0 * 1024.0));

  // Phase 3 — rows and the sink.
  std::vector<Row> rows;
  rows.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto s = rec.span("sink.rows");
    rows.push_back(sweep_row(specs[i], outcomes[i]));
  }
  {
    const auto s = rec.span("sink.emit");
    JsonlSink sink(jsonl_path);
    emit(sink, sweep_schema(), rows);
  }
  return outcomes;
}

std::uint64_t cross_check(const std::vector<ExperimentSpec>& specs,
                          const std::vector<ExperimentOutcome>& outcomes,
                          const std::vector<std::size_t>& sample,
                          bool perturb) {
  std::uint64_t mismatches = 0;
  for (const std::size_t i : sample) {
    ExperimentOutcome scalar = run_experiment(specs[i]);
    scalar.index = outcomes[i].index;
    if (perturb) {
      scalar.cost += 1;
      perturb = false;
    }
    const auto v = SweepCache::kFormatVersion;
    if (encode_outcome(specs[i], scalar, v) !=
        encode_outcome(specs[i], outcomes[i], v)) {
      ++mismatches;
    }
  }
  return mismatches;
}

void layer_metrics(const Attribution& a, const LayerCounts& c,
                   const LayerExtras& x, Result& r) {
  const auto layer = [&](const char* tag) {
    const auto it = a.layer_s.find(tag);
    return it == a.layer_s.end() ? 0.0 : it->second;
  };
  const auto busy = [&](const char* tag) {
    const auto it = a.busy_s.find(tag);
    return it == a.busy_s.end() ? 0.0 : it->second;
  };
  const auto calls = [&](const char* tag) -> std::uint64_t {
    const auto it = a.calls.find(tag);
    return it == a.calls.end() ? 0 : it->second;
  };
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  double service_s = 0;
  for (const auto& [tag, s] : a.layer_s) {
    if (tag.rfind("service.", 0) == 0) service_s += s;
  }
  for (const std::string& error : attribution_errors(a)) {
    r.check(false, "attribution: " + error);
  }

  r.metric("graph.resolve_s", layer("graph.resolve"), "s", calls("graph.resolve"));
  r.metric("graph.builds", d(c.graph_builds), "count");
  r.metric("graph.resident_mb", c.graph_resident_mb, "MB");
  r.metric("spec.fingerprint_s", layer("spec.fingerprint"), "s",
           calls("spec.fingerprint"));
  r.metric("spec.fingerprints", d(c.fingerprints), "count");
  r.metric("sim.scalar_s", layer("sim.scalar"), "s", calls("sim.scalar"));
  r.metric("sim.scalar_traversals", d(c.scalar_traversals), "count");
  r.metric("sim.scalar_ns_per_traversal",
           per(busy("sim.scalar") * 1e9, d(c.scalar_traversals)), "ns");
  r.metric("sgl.run_s", layer("sgl.run"), "s", calls("sgl.run"));
  r.metric("sgl.traversals", d(c.sgl_traversals), "count");
  const auto max_sgl = a.max_call_s.find("sgl.run");
  r.metric("sgl.max_cell_s", max_sgl == a.max_call_s.end() ? 0 : max_sgl->second,
           "s", calls("sgl.run"));
  r.metric("batch.form_s", layer("batch.form"), "s", calls("batch.form"));
  r.metric("batch.run_s", layer("batch.run"), "s", calls("batch.run"));
  r.metric("batch.ns_per_traversal",
           x.batch_ns_per_traversal >= 0
               ? x.batch_ns_per_traversal
               : per(busy("batch.run") * 1e9, d(c.batch_traversals)),
           "ns");
  r.metric("batch.lanes_per_batch", per(d(c.batch_cells), d(c.batches)), "count",
           c.batches);
  r.metric("batch.fallback_lanes", d(c.fallback_lanes), "count");
  r.metric("cache.open_s", layer("cache.open"), "s", calls("cache.open"));
  r.metric("cache.lookup_s", layer("cache.lookup"), "s", calls("cache.lookup"));
  r.metric("cache.hit_ratio", per(d(c.hits), d(c.lookups)), "ratio", c.lookups);
  r.metric("cache.store_s", layer("cache.store"), "s", calls("cache.store"));
  r.metric("cache.flush_s", layer("cache.flush"), "s", calls("cache.flush"));
  r.metric("cache.fsyncs_per_kcell", per(d(c.fsyncs) * 1000, d(c.cells)), "count");
  r.metric("cache.lost_stores", d(c.lost_stores), "count");
  r.metric("sink.rows_s", layer("sink.rows"), "s", calls("sink.rows"));
  r.metric("sink.emit_s", layer("sink.emit"), "s", calls("sink.emit"));
  r.metric("sink.bytes", d(c.sink_bytes), "bytes");
  r.metric("shard.run_s", layer("shard.run"), "s", calls("shard.run"));
  r.metric("shard.imbalance", x.shard_imbalance, "ratio");
  r.metric("service.client_s", service_s, "s");
  r.metric("service.ping_ms", x.ping_ms, "ms");
  r.metric("service.status_ms", x.status_ms, "ms");
  r.metric("service.run_ms", x.run_ms, "ms");
  r.metric("service.sweep_ms", x.sweep_ms, "ms");
  r.metric("service.admit_ms", x.admit_ms, "ms");
  r.metric("service.queue_wait_ms", x.queue_wait_ms, "ms");
  r.metric("service.job_s", x.job_s, "s");
  r.metric("service.busy_rejections", d(x.busy_rejections), "count");
  r.metric("obs.tracer_on_ratio", x.tracer_on_ratio, "ratio");
  r.metric("trace.wall_s", a.wall_s, "s");
  r.metric("trace.residual_s", a.residual_s, "s");
  r.metric("trace.residual_frac", per(a.residual_s, a.wall_s), "ratio");
  r.metric("trace.overhead_frac", x.overhead_frac, "ratio");
}

}  // namespace perfbench
