#include "runner/shard.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "runner/pipeline.h"

namespace asyncrv::runner {

namespace {

/// The counted fields of ShardWorkerStats and the registry counter each one
/// reads — the registry is the only tally (DESIGN.md §11).
struct CountedField {
  std::uint64_t ShardWorkerStats::*field;
  const char* counter;
};
constexpr CountedField kCountedFields[] = {
    {&ShardWorkerStats::hits, "pipeline.cache_hits"},
    {&ShardWorkerStats::executed, "pipeline.executed"},
    {&ShardWorkerStats::fsyncs, "sweepcache.fsyncs"},
    {&ShardWorkerStats::store_bytes, "sweepcache.store_bytes"},
};

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ::ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// run_shard's fault injection: at the `after`-th streamed row (each one
/// stored before it arrives), flush exactly that prefix and die the hard way.
class KillAfter final : public ResultSink {
 public:
  KillAfter(const SweepCache& cache, std::uint64_t after)
      : cache_(cache), after_(after) {}
  void begin(const Schema&) override {}
  void row(const Row&) override {
    if (++rows_ < after_) return;
    cache_.flush();
    ::kill(::getpid(), SIGKILL);
    ::pause();  // unreachable; SIGKILL cannot be handled
  }
  void end() override {}

 private:
  const SweepCache& cache_;
  const std::uint64_t after_;
  std::uint64_t rows_ = 0;
};

/// Closes the workers' read ends opened so far, then throws.
[[noreturn]] void fail(const std::vector<int>& read_fds, const char* what) {
  for (const int fd : read_fds) ::close(fd);
  throw std::runtime_error(std::string("run_sharded: ") + what + " failed");
}

}  // namespace

int shard_of(const Fingerprint& fp, int shards) {
  if (shards <= 1) return 0;
  // The fingerprint is FNV-1a-128 of the canonical spec — already
  // uniformly mixed, so a plain modulus partitions evenly. Using only
  // arithmetic on the published (hi, lo) pair keeps the partition part of
  // the cache's stability contract: any process that can fingerprint a
  // spec can compute its shard.
  return static_cast<int>((fp.hi ^ fp.lo) % static_cast<std::uint64_t>(shards));
}

std::vector<std::vector<std::size_t>> plan_shards(
    const std::vector<ExperimentSpec>& specs, int shards) {
  if (shards < 1) throw std::logic_error("shard count must be >= 1");
  std::vector<std::vector<std::size_t>> plan(
      static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    plan[static_cast<std::size_t>(shard_of(specs[i].fingerprint(), shards))]
        .push_back(i);
  }
  return plan;
}

ShardWorkerStats run_shard(const std::vector<ExperimentSpec>& specs,
                           const std::vector<std::size_t>& shard,
                           const ShardWorkerOptions& options) {
  const obs::ObsSpan span("shard.worker", "shard");
  ShardWorkerStats stats;
  stats.cells = shard.size();

  std::vector<ExperimentSpec> mine;
  mine.reserve(shard.size());
  for (const std::size_t i : shard) mine.push_back(specs[i]);

  SweepCacheOptions copts = options.cache;
  PipelineOptions popts;
  popts.threads = options.threads;
  popts.batch = options.batch;
  popts.batch_size = options.batch_size;
  popts.progress = options.progress;
  if (options.kill_after > 0) {
    // Deterministic fault injection: single-threaded, explicit-flush-only,
    // so outcomes commit strictly in shard order and the durable prefix at
    // the kill is exactly kill_after cells (the resumption acceptance test
    // counts on it).
    popts.threads = 1;
    copts.flush_every = 0;
  }

  // Registry deltas across the cache's whole life, so the fsync that
  // seals its segment on destruction is counted too.
  std::uint64_t before[std::size(kCountedFields)];
  for (std::size_t i = 0; i < std::size(kCountedFields); ++i) {
    before[i] = obs::metrics().counter(kCountedFields[i].counter).value();
  }
  // Scoped so the cache seals its segment before we return (and before a
  // forked worker _exits without running static destructors).
  {
    SweepCache cache(options.cache_dir, copts);
    popts.cache = &cache;
    KillAfter killer(cache, options.kill_after);
    if (options.kill_after > 0) popts.sinks.push_back(&killer);
    ExperimentPipeline(popts).run(std::move(mine));
  }
  for (std::size_t i = 0; i < std::size(kCountedFields); ++i) {
    stats.*kCountedFields[i].field =
        obs::metrics().counter(kCountedFields[i].counter).value() - before[i];
  }
  return stats;
}

bool ShardRun::ok() const {
  for (const ShardWorkerResult& w : workers) {
    if (!WIFEXITED(w.wait_status) || WEXITSTATUS(w.wait_status) != 0 ||
        !w.reported) {
      return false;
    }
  }
  return true;
}

std::uint64_t ShardRun::total(
    std::uint64_t ShardWorkerStats::*field) const {
  std::uint64_t sum = 0;
  for (const ShardWorkerResult& w : workers) sum += w.stats.*field;
  return sum;
}

ShardRun run_sharded(const std::vector<ExperimentSpec>& specs,
                     const ShardDriverOptions& options) {
  ShardRun run;
  const auto plan = plan_shards(specs, options.shards);
  std::vector<int> read_fds;  // one pipe per worker, parallel to run.workers

  // Inherited stdio buffers would be flushed once per child on _exit,
  // duplicating anything pending — settle them before forking.
  std::fflush(stdout);
  std::fflush(stderr);

  for (int k = 0; k < options.shards; ++k) {
    const auto& shard = plan[static_cast<std::size_t>(k)];
    if (shard.empty()) continue;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) fail(read_fds, "pipe()");
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      fail(read_fds, "fork()");
    }
    if (pid == 0) {
      // Worker: execute the shard, write the registry snapshot to its own
      // pipe, and _exit — never return into the parent's stack.
      ::close(pipe_fds[0]);
      // The child inherits whatever the parent's registry accumulated;
      // reset so the shipped snapshot covers exactly this worker's shard
      // and the parent's merge never double-counts inherited totals.
      obs::metrics().reset();
      int code = 1;
      try {
        ShardWorkerOptions wopts;
        wopts.cache_dir = options.cache_dir;
        wopts.cache = options.cache;
        wopts.threads = options.threads_per_worker;
        wopts.batch = options.batch;
        wopts.batch_size = options.batch_size;
        wopts.progress = options.progress;
        if (k == options.kill_worker) wopts.kill_after = options.kill_after;
        run_shard(specs, shard, wopts);
        const std::string text = obs::metrics().snapshot().to_text();
        std::FILE* out = ::fdopen(pipe_fds[1], "w");
        if (out != nullptr &&
            std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
            std::fclose(out) == 0) {
          code = 0;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: shard %d: %s\n", k, e.what());
      }
      ::_exit(code);
    }
    ::close(pipe_fds[1]);  // parent holds only the read end
    read_fds.push_back(pipe_fds[0]);
    ShardWorkerResult res;
    res.shard = k;
    res.pid = pid;
    res.stats.cells = shard.size();
    run.workers.push_back(res);
  }

  // Each pipe reaches EOF when its worker exits (or dies): only that worker
  // holds its write end. Read it fully before reaping, so a snapshot larger
  // than the pipe buffer never blocks its writer.
  for (std::size_t i = 0; i < run.workers.size(); ++i) {
    ShardWorkerResult& w = run.workers[i];
    const std::string text = read_to_eof(read_fds[i]);
    ::close(read_fds[i]);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.wait_status = status;
    auto snap = obs::Snapshot::from_text(text);
    if (!snap) continue;
    w.reported = true;
    for (const CountedField& f : kCountedFields) {
      const auto c = snap->counters.find(f.counter);
      w.stats.*f.field = c == snap->counters.end() ? 0 : c->second;
    }
    run.fleet_metrics.merge(*snap);
    w.metrics = std::move(*snap);
  }
  return run;
}

}  // namespace asyncrv::runner
