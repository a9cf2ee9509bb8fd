// Shared plumbing of the benchmark binary: options, the result record,
// resource probes, the run directory, and the traced replay of an
// ExperimentPipeline run through each layer's public functions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen.h"
#include "recorder.h"
#include "runner/batch.h"
#include "runner/cache.h"
#include "runner/pipeline.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size;
  std::string expect_digest;      ///< fail unless the first iteration's
                                  ///< JSONL digest equals this (tests)
  bool break_crosscheck = false;  ///< perturb the cross-check (tests)
  std::string out_dir = ".bench_out";
  std::string meta_json;          ///< run metadata, stamped on every output
};

/// One named figure with its unit. `samples` is the sample count behind
/// it (0 = a total or a ratio of totals).
struct Figure {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;             ///< first iteration's JSONL digest
  std::vector<Figure> metrics;    ///< the gated set (end-to-end or per-layer)
  std::vector<Figure> details;    ///< workload-specific figures, not gated
  std::vector<double> window_rates;  ///< cells_per_cpu_s of every window

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void metric(std::string name, double value, std::string unit,
              std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void detail(std::string name, double value, std::string unit,
              std::uint64_t samples = 0) {
    details.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Core speed. A shared host's cores do not run at one speed: sweep-theorem
/// cells took 10.3 ms of CPU each in one quarter hour and 6.7 ms in the
/// next on a 4-vCPU VM, as other tenants' load on the cores changed. A
/// fixed reference kernel — the benchmark's own code, independent of the
/// program under test — is timed in thread CPU time after every measured
/// window; the gated figures count CPU seconds at the nominal speed, where
/// the kernel takes kNominalReferenceS. A change to the program still
/// moves them in full: only the host's speed is divided out.
///
/// Returns the CPU seconds the calling thread spent on one run of the
/// kernel (a dependent walk over a 256 KiB table with a data-dependent
/// branch, about 15 ms).
double reference_cpu_s();
inline constexpr double kNominalReferenceS = 0.015;

/// CPU seconds of this process (all threads; not its children).
double process_cpu_s();

/// Set-up timing. setup_s is the median CPU time `make` takes in a run
/// (wall time on the detail line); `teardown` runs (untimed) before each
/// sample. A workload whose set-up is cheap to repeat keeps sampling it
/// between iterations, spread over the whole run, until set-up sampling
/// has taken kSetupShare of the measured time.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> make, std::function<void()> teardown)
      : make_(std::move(make)), teardown_(std::move(teardown)) {}
  /// Samples until this call took at least `min` samples and the run's
  /// sampling (teardowns included) has lasted `until_s` seconds in all.
  void sample(std::size_t min, double until_s);
  const std::vector<double>& cpu_times() const { return cpu_; }
  const std::vector<double>& wall_times() const { return wall_; }

 private:
  std::function<void()> make_, teardown_;
  std::vector<double> cpu_, wall_;
  double spent_s_ = 0;
};
inline constexpr std::size_t kMinSetups = 7;
inline constexpr double kSetupWindowS = 0.25;  ///< sampling before the run
inline constexpr double kSetupShare = 0.1;

/// One measured slice of a run: an iteration of a sweep workload, or a
/// segment of the daemon loop. `ref_s` is reference_cpu_s() timed right
/// after it.
struct Window {
  double cells = 0;
  double seconds = 0;
  double cpu_s = 0;  ///< this process and its reaped children
  double ref_s = 0;
};

/// The end-to-end metrics every workload reports:
///  - cells_per_cpu_s: median over the run's windows of cells per CPU
///    second at nominal core speed, cells / (cpu_s · kNominalReferenceS /
///    ref_s). CPU time does not count the time a thread waits for a core,
///    so other load on the host does not move it; the reference divides
///    out how fast the cores ran.
///  - setup_s: median set-up CPU time at nominal core speed (the run's
///    median ref_s).
///  - peak_rss_mb.
/// The wall-clock figures (cells_per_s, setup_wall_s), cpu_ms_per_cell and
/// core_speed (kNominalReferenceS / median ref_s) go on the detail line.
void end_to_end(Result& r, const std::vector<Window>& windows,
                const SetupTimer& setup);

/// Peak resident set of this process and every reaped child, in MB.
double peak_rss_mb();
/// User + system CPU seconds of this process and every reaped child.
double cpu_seconds();
double seconds_since(std::uint64_t start_ns);
double median(std::vector<double> v);
/// The q-quantile (0..1) by nearest rank.
double quantile(std::vector<double> v, double q);

/// FNV-1a-64 of a byte string, as 16 hex digits.
std::string digest(const std::string& bytes);
std::string read_file(const std::string& path);
std::uint64_t dir_bytes(const std::string& dir);

/// A scratch directory under .bench_run/ removed on destruction.
class RunDir {
 public:
  explicit RunDir(const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The pipeline's pool width for a run: options.threads, else hardware
/// concurrency, capped to the job count (ExperimentPipeline::run's rule).
unsigned pool_width(int threads, std::size_t jobs);

/// Threads (or shards) of the workloads that set them: 4, or nproc when
/// smaller — load comes from one process with at most nproc busy threads.
int load_width();

/// Per-layer counts collected by the traced replay.
struct LayerCounts {
  std::uint64_t fingerprints = 0;
  std::uint64_t graph_builds = 0;
  double graph_resident_mb = 0;
  std::uint64_t scalar_traversals = 0;
  std::uint64_t sgl_traversals = 0;
  std::uint64_t batch_traversals = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_cells = 0;     ///< cells handed to run_spec_batch
  std::uint64_t fallback_lanes = 0;  ///< of those, lanes that ran scalar
  std::uint64_t lookups = 0, hits = 0, fsyncs = 0;
  std::uint64_t cells = 0;
  std::uint64_t lost_stores = 0;
  std::uint64_t sink_bytes = 0;
};

struct ReplayConfig {
  int threads = 0;
  bool batch = false;
  const asyncrv::runner::SweepCache* cache = nullptr;
};

/// The untraced reference: one ExperimentPipeline run with a JsonlSink at
/// `jsonl_path`. Returns the report; `seconds` receives the wall time of
/// run() alone.
asyncrv::runner::PipelineReport run_pipeline(
    const std::vector<ExperimentSpec>& specs,
    asyncrv::runner::PipelineOptions options, const std::string& jsonl_path,
    double* seconds);

/// Replays one pipeline run layer by layer, in the pipeline's phase order
/// (fingerprint, lookup, form_batches, then on a pool of the same width
/// each job's graph resolve, execution and stores, then flush, sweep_row,
/// emit), one span per public call. Writes the JSONL the pipeline would
/// have written and returns the outcomes.
std::vector<asyncrv::runner::ExperimentOutcome> replay_pipeline(
    const std::vector<ExperimentSpec>& specs, const ReplayConfig& config,
    Recorder& rec, std::uint64_t request, const std::string& jsonl_path,
    LayerCounts* counts);

/// Batch/scalar cross-check: re-executes `sample` (indices into specs)
/// through scalar run_experiment and compares the encoded outcomes with
/// `outcomes`. Returns the number of mismatches. `perturb` corrupts the
/// first scalar outcome (the benchmark's tests use it to prove a mismatch
/// fails the run).
std::uint64_t cross_check(
    const std::vector<ExperimentSpec>& specs,
    const std::vector<asyncrv::runner::ExperimentOutcome>& outcomes,
    const std::vector<std::size_t>& sample, bool perturb);

/// Lost-store probe: a fresh SweepCache on a directory a cold phase
/// stored into, counting the executed cells it cannot serve.
class LostStoreProbe {
 public:
  explicit LostStoreProbe(const std::string& dir) : cache_(dir) {}
  void operator()(const ExperimentSpec& spec) {
    ++probed_;
    if (!cache_.lookup(spec)) ++lost_;
  }
  std::uint64_t probed() const { return probed_; }
  std::uint64_t lost() const { return lost_; }

 private:
  const asyncrv::runner::SweepCache cache_;
  std::uint64_t probed_ = 0, lost_ = 0;
};

/// Per-layer figures that come from outside the span tree.
struct LayerExtras {
  double tracer_on_ratio = 0;  ///< wall with obs::Tracer on / off
  double overhead_frac = 0;    ///< (traced − untraced) / untraced wall
  /// service.* figures (daemon-mixed only).
  double ping_ms = 0, status_ms = 0, run_ms = 0, sweep_ms = 0, admit_ms = 0;
  double queue_wait_ms = 0, job_s = 0;
  std::uint64_t busy_rejections = 0;
  double shard_imbalance = 0;  ///< max / mean cells per shard worker
  /// Registry-sourced batch figures of work done out of the benchmark's
  /// sight (inside a daemon or shard workers); used when the replay ran
  /// no batch itself.
  double batch_ns_per_traversal = -1;
};

/// The per-layer metric set, filled from an attribution plus counts. Every
/// name is always emitted; a layer the workload never reaches reads 0.
/// Fails the result on every attribution_errors() entry.
void layer_metrics(const Attribution& a, const LayerCounts& c,
                   const LayerExtras& x, Result& r);

Result run_theorem(const Options& o);
Result run_replicas(const Options& o);
Result run_scale(const Options& o);
Result run_daemon(const Options& o);

}  // namespace perfbench
