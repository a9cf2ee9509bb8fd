#include "runner/cli.h"

#include <iostream>
#include <stdexcept>

#include "obs/trace.h"

namespace asyncrv::runner {

PipelineCli::~PipelineCli() {
  if (trace_out_.empty()) return;
  if (!obs::Tracer::global().write_chrome_json(trace_out_)) {
    std::cerr << "warning: could not write trace to " << trace_out_ << "\n";
  }
}

const char* PipelineCli::flags_help() {
  return "[--csv <path>] [--jsonl <path>] [--cache-dir <dir>] "
         "[--threads <n>] [--batch] [--progress] [--trace-out <path>]";
}

std::vector<std::string> PipelineCli::parse(int argc, char** argv) {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::logic_error("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--csv") {
      csv_ = std::make_unique<CsvSink>(value());
    } else if (arg == "--jsonl") {
      jsonl_ = std::make_unique<JsonlSink>(value());
    } else if (arg == "--cache-dir") {
      cache_dir_ = value();
    } else if (arg == "--progress") {
      progress_ = true;
    } else if (arg == "--trace-out") {
      trace_out_ = value();
      if (trace_out_.empty()) {
        throw std::logic_error("empty --trace-out path");
      }
      obs::Tracer::global().enable();
    } else if (arg == "--threads") {
      const std::string v = value();
      std::size_t pos = 0;
      int n = 0;
      try {
        n = std::stoi(v, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != v.size() || n < 0) {
        throw std::logic_error("bad --threads value: " + v);
      }
      threads_ = n;
    } else if (arg == "--batch") {
      batch_ = true;
    } else {
      rest.push_back(arg);
    }
  }
  if (!cache_dir_.empty()) cache_ = std::make_unique<SweepCache>(cache_dir_);
  return rest;
}

bool PipelineCli::parse_flags_only(const std::string& tool, int argc,
                                   char** argv) {
  try {
    const std::vector<std::string> rest = parse(argc, argv);
    if (rest.empty()) return true;
    std::cerr << "error: unexpected argument '" << rest.front() << "'\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
  std::cerr << "usage: " << tool << " " << flags_help() << "\n";
  return false;
}

PipelineOptions PipelineCli::options() const {
  PipelineOptions opts;
  opts.threads = threads_;
  opts.batch = batch_;
  opts.progress = progress_;
  if (csv_) opts.sinks.push_back(csv_.get());
  if (jsonl_) opts.sinks.push_back(jsonl_.get());
  opts.cache = cache_.get();
  return opts;
}

}  // namespace asyncrv::runner
