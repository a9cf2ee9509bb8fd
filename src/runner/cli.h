// Shared command-line plumbing for pipeline-driven tools.
//
// Every experiment harness and example binary accepts the same sweep
// flags:
//
//   --csv <path>       write the sweep table as CSV
//   --jsonl <path>     write the sweep table as JSON Lines
//   --cache-dir <dir>  persistent sweep cache (created if missing)
//   --threads <n>      worker threads (default: hardware concurrency)
//   --batch            batched lockstep execution of rendezvous cells
//                      (sim/batch_engine.h; bit-identical output)
//   --progress         throttled cells/sec + ETA meter on stderr
//                      (sink bytes untouched)
//   --trace-out <path> enable the span tracer for the process and write a
//                      Chrome trace_event JSON (chrome://tracing /
//                      Perfetto) when the CLI object is destroyed
//
// PipelineCli::parse consumes those flags (throwing std::logic_error on
// malformed input) and returns the remaining arguments for the tool's own
// positional parsing; options() then yields PipelineOptions with the file
// sinks and the cache wired up. The CLI object owns the sinks/cache, so it
// must outlive the pipeline run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runner/cache.h"
#include "runner/pipeline.h"
#include "runner/sink.h"

namespace asyncrv::runner {

class PipelineCli {
 public:
  /// Writes the trace (if --trace-out was given) — the CLI outlives the
  /// pipeline run, so destruction sees every span the run recorded.
  ~PipelineCli();

  /// One usage line describing the shared flags, for tools' --help text.
  static const char* flags_help();

  /// Extracts the shared flags from argv (any position); returns the
  /// remaining arguments in order. Throws on a malformed or incomplete
  /// flag, or an unopenable output file.
  std::vector<std::string> parse(int argc, char** argv);

  /// parse() for tools without positional arguments: on any leftover
  /// argument or parse failure prints the error and a usage line for
  /// `tool` to stderr and returns false (the tool should exit 1).
  bool parse_flags_only(const std::string& tool, int argc, char** argv);

  /// Pipeline options carrying this CLI's sinks, cache and thread count.
  /// Additional sinks (e.g. a ConsoleSink) can be pushed onto the result.
  PipelineOptions options() const;

  bool has_cache() const { return cache_ != nullptr; }
  const SweepCache* cache() const { return cache_.get(); }
  int threads() const { return threads_; }
  bool batch() const { return batch_; }
  bool progress() const { return progress_; }
  const std::string& trace_out() const { return trace_out_; }
  const std::string& cache_dir() const { return cache_dir_; }

 private:
  std::unique_ptr<CsvSink> csv_;
  std::unique_ptr<JsonlSink> jsonl_;
  std::unique_ptr<SweepCache> cache_;
  std::string cache_dir_;
  std::string trace_out_;
  int threads_ = 0;
  bool batch_ = false;
  bool progress_ = false;
};

}  // namespace asyncrv::runner
