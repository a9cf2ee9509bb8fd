#include "runner/pipeline.h"

#include "runner/batch.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace asyncrv::runner {

namespace {

std::string labels_text(const ExperimentSpec& spec) {
  std::string out;
  for (const std::uint64_t label : spec.labels()) {
    if (!out.empty()) out += '/';
    out += std::to_string(label);
  }
  return out;
}

std::size_t column_index(const Schema& schema, const std::string& name) {
  for (std::size_t c = 0; c < schema.size(); ++c) {
    if (schema[c].name == name) return c;
  }
  ASYNCRV_CHECK_MSG(false, "unknown sweep column: " + name);
  return 0;
}

/// Folds one scenario into a rollup — the single definition of the
/// aggregate rules (errored scenarios contribute no cost; max_met_cost is
/// over succeeded scenarios only), shared by the report totals and by
/// group_by so the two can never disagree.
void accumulate(GroupStats& g, const std::string& status, std::uint64_t cost) {
  ++g.scenarios;
  if (status == "error") {
    ++g.errored;
    return;
  }
  if (status == "ok") {
    ++g.succeeded;
    if (cost > g.max_met_cost) g.max_met_cost = cost;
  } else {
    ++g.unresolved;
  }
  g.total_cost += cost;
  if (cost > g.max_cost) g.max_cost = cost;
}

/// Marks an outcome errored after its on_outcome callback threw (legacy
/// containment semantics: the error is recorded, never escapes a worker).
void record_callback_error(ExperimentOutcome& out, const std::exception& e) {
  out.error += (out.error.empty() ? "" : "; ");
  out.error += std::string("on_outcome callback threw: ") + e.what();
  out.status = RunStatus::Error;
}

/// The pipeline's registry instruments, resolved once per process
/// (DESIGN.md §11 naming scheme). Counters are bumped per cell; stage
/// histograms observe one wall-clock sample per run per stage.
struct PipelineInstruments {
  obs::Counter& runs = obs::metrics().counter("pipeline.runs");
  obs::Counter& cells = obs::metrics().counter("pipeline.cells");
  obs::Counter& outcomes = obs::metrics().counter("pipeline.outcomes");
  obs::Counter& cache_hits = obs::metrics().counter("pipeline.cache_hits");
  obs::Counter& executed = obs::metrics().counter("pipeline.executed");
  obs::Counter& batched_lanes =
      obs::metrics().counter("pipeline.batched_lanes");
  obs::Histogram& lookup_ns =
      obs::metrics().histogram("pipeline.stage.lookup_ns");
  obs::Histogram& form_ns =
      obs::metrics().histogram("pipeline.stage.form_batches_ns");
  obs::Histogram& execute_ns =
      obs::metrics().histogram("pipeline.stage.execute_ns");
  obs::Histogram& flush_ns =
      obs::metrics().histogram("pipeline.stage.flush_ns");
  obs::Histogram& sink_ns = obs::metrics().histogram("pipeline.stage.sink_ns");
  obs::Histogram& cell_ns = obs::metrics().histogram("pipeline.cell_ns");
  obs::Histogram& batch_ns = obs::metrics().histogram("pipeline.batch_ns");
  obs::Histogram& store_ns = obs::metrics().histogram("pipeline.store_ns");

  static PipelineInstruments& get() {
    static PipelineInstruments& in = *new PipelineInstruments();
    return in;
  }
};

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times one pipeline stage into a histogram (plus a trace span with the
/// same name, so the two observability views can never disagree on what a
/// "stage" is).
class StageTimer {
 public:
  StageTimer(const char* name, obs::Histogram& hist)
      : span_(name, "pipeline"), hist_(hist), start_(mono_ns()) {}
  ~StageTimer() { hist_.observe(mono_ns() - start_); }

 private:
  obs::ObsSpan span_;
  obs::Histogram& hist_;
  std::uint64_t start_;
};

/// Throttled cells/sec + ETA meter on stderr (PipelineOptions::progress).
/// stderr only — sinks and the report never see it, so the byte-identity
/// gates on JSONL/CSV are untouched by the flag.
///
/// The displayed numbers are READ from the pipeline's registry counters
/// (outcomes / cache hits / executed / batched lanes, as deltas against
/// the counter values at construction) rather than tallied privately —
/// the meter and the final report count the same events by construction.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, std::size_t total)
      : enabled_(enabled), total_(total), in_(PipelineInstruments::get()),
        base_outcomes_(in_.outcomes.value()),
        base_hits_(in_.cache_hits.value()),
        base_executed_(in_.executed.value()),
        base_batched_(in_.batched_lanes.value()),
        start_(std::chrono::steady_clock::now()), last_(start_) {}

  /// Called after each delivered outcome (its counters already bumped).
  void tick() {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t done =
        static_cast<std::size_t>(in_.outcomes.value() - base_outcomes_);
    const auto now = std::chrono::steady_clock::now();
    if (done < total_ && now - last_ < std::chrono::milliseconds(250)) return;
    last_ = now;
    print(done, now, done >= total_);
    if (done >= total_) finished_ = true;
  }

  ~ProgressMeter() {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (!finished_) {
      const std::size_t done =
          static_cast<std::size_t>(in_.outcomes.value() - base_outcomes_);
      print(done, std::chrono::steady_clock::now(), true);
    }
  }

 private:
  void print(std::size_t done, std::chrono::steady_clock::time_point now,
             bool final) {
    const double secs =
        std::chrono::duration<double>(now - start_).count();
    const double rate = secs > 0 ? static_cast<double>(done) / secs : 0.0;
    const double eta =
        rate > 0 && done < total_
            ? static_cast<double>(total_ - done) / rate
            : 0.0;
    std::fprintf(stderr,
                 "\rprogress: %zu/%zu cells, %.0f cells/sec, ETA %.0fs "
                 "(%llu hits, %llu executed, %llu batched)",
                 done, total_, rate, eta,
                 static_cast<unsigned long long>(in_.cache_hits.value() -
                                                 base_hits_),
                 static_cast<unsigned long long>(in_.executed.value() -
                                                 base_executed_),
                 static_cast<unsigned long long>(in_.batched_lanes.value() -
                                                 base_batched_));
    if (final) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

  const bool enabled_;
  const std::size_t total_;
  PipelineInstruments& in_;
  const std::uint64_t base_outcomes_, base_hits_, base_executed_,
      base_batched_;
  std::mutex mu_;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_, last_;
};

}  // namespace

Schema sweep_schema() {
  return {
      {"index", ColumnType::U64},    {"name", ColumnType::Str},
      {"kind", ColumnType::Str},     {"graph", ColumnType::Str},
      {"adversary", ColumnType::Str}, {"algo", ColumnType::Str},
      {"labels", ColumnType::Str},   {"seed", ColumnType::U64},
      {"budget", ColumnType::U64},   {"status", ColumnType::Str},
      {"cost", ColumnType::U64},     {"traversals_a", ColumnType::U64},
      {"traversals_b", ColumnType::U64}, {"agents", ColumnType::U64},
      {"fingerprint", ColumnType::Str},  {"error", ColumnType::Str},
  };
}

Row sweep_row(const ExperimentSpec& spec, const ExperimentOutcome& outcome) {
  std::string kind, graph, adversary, algo;
  std::uint64_t seed = 0, budget = 0, agents = 0;
  if (const RendezvousSpec* rv = spec.rendezvous()) {
    kind = "rendezvous";
    graph = rv->graph;
    adversary = rv->adversary;
    algo = rv->algo == RouteAlgo::Baseline ? "baseline" : "rv-asynch-poly";
    seed = rv->seed;
    budget = rv->budget;
    agents = 2;
  } else if (const SearchSpec* se = spec.search()) {
    kind = "search";
    graph = se->graph;
    // The searched schedule IS the adversary of these rows; the objective
    // rides in the algo column so group_by("adversary"/"algo") stay
    // meaningful across mixed sweeps.
    adversary = "search:" + se->optimizer;
    algo = se->objective;
    seed = se->seed;
    budget = se->budget;
    agents = 2;
  } else {
    const SglSpec& sgl = *spec.sgl();
    kind = "sgl";
    graph = sgl.graph;
    seed = sgl.seed;
    budget = sgl.budget;
    agents = sgl.team.empty() ? sgl.labels.size() : sgl.team.size();
  }
  std::uint64_t ta = 0, tb = 0;
  if (const RendezvousOutcome* rv = outcome.rendezvous()) {
    ta = rv->result.traversals_a;
    tb = rv->result.traversals_b;
  }
  return {
      static_cast<std::uint64_t>(outcome.index),
      spec.display(),
      kind,
      graph,
      adversary,
      algo,
      labels_text(spec),
      seed,
      budget,
      outcome.status_label(),
      outcome.cost,
      ta,
      tb,
      agents,
      spec.fingerprint().hex(),
      outcome.error,
  };
}

std::string PipelineReport::summary() const {
  std::ostringstream os;
  os << totals.scenarios << " scenarios: " << totals.succeeded << " ok, "
     << totals.unresolved << " unresolved, " << totals.errored
     << " errors, total cost " << totals.total_cost << " traversals (max "
     << totals.max_cost << ")";
  return os.str();
}

std::vector<GroupStats> PipelineReport::group_by(
    const std::string& column) const {
  const std::size_t key = column_index(schema, column);
  const std::size_t status = column_index(schema, "status");
  const std::size_t cost = column_index(schema, "cost");

  std::vector<GroupStats> groups;
  for (const Row& r : rows) {
    const std::string k = render_value(r[key]);
    GroupStats* g = nullptr;
    for (GroupStats& existing : groups) {
      if (existing.key == k) {
        g = &existing;
        break;
      }
    }
    if (!g) {
      groups.push_back({});
      groups.back().key = k;
      g = &groups.back();
    }
    accumulate(*g, render_value(r[status]), std::get<std::uint64_t>(r[cost]));
  }
  return groups;
}

std::pair<Schema, std::vector<Row>> group_table(
    const std::string& key_name, const std::vector<GroupStats>& groups) {
  Schema schema = {
      {key_name, ColumnType::Str},       {"scenarios", ColumnType::U64},
      {"ok", ColumnType::U64},           {"unresolved", ColumnType::U64},
      {"errors", ColumnType::U64},       {"total_cost", ColumnType::U64},
      {"max_cost", ColumnType::U64},     {"max_met_cost", ColumnType::U64},
  };
  std::vector<Row> rows;
  rows.reserve(groups.size());
  for (const GroupStats& g : groups) {
    rows.push_back({g.key, g.scenarios, g.succeeded, g.unresolved, g.errored,
                    g.total_cost, g.max_cost, g.max_met_cost});
  }
  return {std::move(schema), std::move(rows)};
}

PipelineReport ExperimentPipeline::run(std::vector<ExperimentSpec> specs) const {
  PipelineReport report;
  report.outcomes.resize(specs.size());

  PipelineInstruments& in = PipelineInstruments::get();
  in.runs.add(1);
  in.cells.add(specs.size());
  const obs::ObsSpan run_span("pipeline.run", "pipeline");

  ProgressMeter progress(options_.progress, specs.size());

  // The commit cursor: outcomes are committed — stored, then delivered to
  // on_outcome — strictly in spec order, cache hits included, whatever
  // order the workers finish them in. So the cache's segment bytes and the
  // streamed order are independent of scheduling. Whoever marks outcomes
  // ready while nobody holds the cursor takes it and commits the ready
  // prefix; a worker that finds it held leaves its outcomes to the holder.
  enum : std::uint8_t { kPending, kServed, kExecuted };
  std::vector<std::uint8_t> state(specs.size(), kPending);
  std::mutex commit_mutex;
  std::size_t cursor = 0;
  bool cursor_held = false;
  // Store before the callback (a throwing callback is an environmental
  // failure of THIS run — and the shard driver's kill_after counts on
  // every delivered outcome being stored) and never store transient
  // errors: both would poison the cache with failures a re-run could
  // avoid. A throwing callback is recorded on the outcome instead.
  const auto commit = [&](std::size_t i, bool executed) {
    ExperimentOutcome& out = report.outcomes[i];
    if (executed && options_.cache && !out.transient_error) {
      const StageTimer store_stage("cache.store", in.store_ns);
      options_.cache->store(specs[i], out);
    }
    if (options_.on_outcome) {
      try {
        options_.on_outcome(specs[i], out);
      } catch (const std::exception& e) {
        record_callback_error(out, e);
      }
    }
    if (executed) in.executed.add(1);
    in.outcomes.add(1);
    progress.tick();
  };
  const auto mark_ready = [&](const std::size_t* first,
                              const std::size_t* last, std::uint8_t how) {
    std::unique_lock<std::mutex> lock(commit_mutex);
    for (; first != last; ++first) state[*first] = how;
    if (cursor_held) return;
    cursor_held = true;
    while (cursor < state.size() && state[cursor] != kPending) {
      const std::size_t begin = cursor;
      while (cursor < state.size() && state[cursor] != kPending) ++cursor;
      const std::size_t end = cursor;
      // Ready slots are written once and never again, so the holder reads
      // and commits them outside the lock.
      lock.unlock();
      for (std::size_t i = begin; i < end; ++i) {
        commit(i, state[i] == kExecuted);
      }
      lock.lock();
    }
    cursor_held = false;
  };

  // Phase 1 — serve what the cache already knows.
  std::vector<std::size_t> misses;
  if (options_.cache) {
    const StageTimer stage("pipeline.cache_lookup", in.lookup_ns);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (auto cached = options_.cache->lookup(specs[i])) {
        cached->index = i;
        ++report.cache_hits;
        in.cache_hits.add(1);
        report.outcomes[i] = std::move(*cached);
        mark_ready(&i, &i + 1, kServed);
      } else {
        misses.push_back(i);
      }
    }
  } else {
    misses.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) misses[i] = i;
  }

  // Phase 2 — execute the misses across the pool. In batch mode the
  // rendezvous misses are first formed into topology-grouped SpecBatch
  // jobs (deterministically, BEFORE any worker starts — so the job list,
  // and hence every outcome, is independent of scheduling); the remainder
  // stays on the scalar path. A job is one batch or one scalar miss.
  report.executed = misses.size();
  std::vector<std::size_t> scalar_misses;
  std::vector<SpecBatch> batches;
  if (options_.batch) {
    const StageTimer stage("pipeline.form_batches", in.form_ns);
    batches = form_batches(specs, misses, options_.batch_size, &scalar_misses);
  } else {
    scalar_misses = misses;
  }
  const std::size_t n_jobs = batches.size() + scalar_misses.size();

  unsigned n_threads = options_.threads > 0
                           ? static_cast<unsigned>(options_.threads)
                           : std::thread::hardware_concurrency();
  if (n_threads == 0) n_threads = 1;
  if (n_threads > n_jobs) n_threads = static_cast<unsigned>(n_jobs);

  // One graph cache for the whole batch: every worker resolves topology
  // ids through it, so each distinct graph is constructed exactly once
  // however many scenarios share it (tests/graph_cache_test.cc).
  GraphCache local_graphs;
  GraphCache* graphs =
      options_.graph_cache ? options_.graph_cache : &local_graphs;

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> batched{0};
  const auto worker = [&]() {
    // One engine arena per worker: back-to-back scenarios on this thread
    // reuse the occupancy index and sweep scratch instead of reallocating
    // per run. Outcomes are unaffected (tests/pipeline_test.cc).
    sim::EngineScratch scratch;
    while (true) {
      const std::size_t j = next.fetch_add(1);
      if (j >= n_jobs) return;
      if (j < batches.size()) {
        // A whole batch runs on one worker: its shared TrajKit memoizes
        // without locks, and its lanes' outcomes land directly in their
        // report slots (distinct per job, so no two workers collide).
        {
          const StageTimer batch_stage("pipeline.batch", in.batch_ns);
          const std::uint64_t lanes = run_spec_batch(
              specs, batches[j], &scratch, graphs, report.outcomes.data());
          batched.fetch_add(lanes);
          in.batched_lanes.add(lanes);
        }
        const std::vector<std::size_t>& done = batches[j].indices;
        mark_ready(done.data(), done.data() + done.size(), kExecuted);
        continue;
      }
      const std::size_t i = scalar_misses[j - batches.size()];
      {
        const StageTimer cell_stage("pipeline.cell", in.cell_ns);
        ExperimentOutcome out = run_experiment(specs[i], &scratch, graphs);
        out.index = i;
        report.outcomes[i] = std::move(out);
      }
      mark_ready(&i, &i + 1, kExecuted);
    }
  };

  {
    const StageTimer stage("pipeline.execute", in.execute_ns);
    if (n_threads <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(n_threads);
      for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
    }
  }
  report.batched = batched.load();
  ASYNCRV_CHECK(cursor == specs.size());

  // Group commit: whatever the cache appended during this run becomes
  // durable with one fsync here instead of one per cell.
  if (options_.cache) {
    const StageTimer stage("cache.flush", in.flush_ns);
    options_.cache->flush();
  }

  report.graph_stats = graphs->stats();

  // Phase 3 — rows, aggregates and sinks, all in spec order: independent of
  // scheduling and of the hit/miss split, so the emitted bytes are
  // identical across thread counts and cache states.
  report.specs = std::move(specs);
  report.schema = sweep_schema();
  report.rows.reserve(report.specs.size());
  report.totals.key = "all";
  for (std::size_t i = 0; i < report.specs.size(); ++i) {
    const ExperimentOutcome& out = report.outcomes[i];
    report.rows.push_back(sweep_row(report.specs[i], out));
    accumulate(report.totals, out.status_label(), out.cost);
  }
  {
    const StageTimer stage("pipeline.sink", in.sink_ns);
    for (ResultSink* sink : options_.sinks) {
      if (sink) emit(*sink, report.schema, report.rows);
    }
  }
  return report;
}

}  // namespace asyncrv::runner
