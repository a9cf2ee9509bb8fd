// perfbench — the end-to-end benchmark with per-layer attribution.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|smoke] [--meta-git-rev <rev>] [--meta-dirty <0|1>]
//             [--expect-digest <hex>] [--break-crosscheck]
//   perfbench --check-spans <trace.jsonl>
//
// Prints one `perfbench-detail {...}` line (run metadata, the first
// iteration's JSONL digest, workload-specific figures with sample counts,
// failures) and, last, the result object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (perfbench/README.md). A failed correctness check prints
// correct=false and exits 1; a non-Release build refuses to run.
//
// --check-spans attributes a span file a traced run wrote (or any file in
// its format), prints the layer shares, and exits 1 if the spans are
// inconsistent (attribution_errors) — the benchmark's tests feed it
// contradictory span sets.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string figures(const std::vector<Figure>& fs, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < fs.size(); ++i) {
    if (i) out += ", ";
    out += json_string(fs[i].name) + ": {\"value\": " + number(fs[i].value) +
           ", \"unit\": " + json_string(fs[i].unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(fs[i].samples);
    out += "}";
  }
  return out + "}";
}

int check_spans(const std::string& path) {
  std::vector<Span> spans;
  std::deque<std::string> names;
  if (!read_spans(path, &spans, &names)) {
    std::cerr << "perfbench: cannot read spans from " << path << "\n";
    return 2;
  }
  const Attribution a = attribute(spans);
  std::cout << "wall_s " << number(a.wall_s) << "\nresidual_s "
            << number(a.residual_s) << "\n";
  for (const auto& [layer, s] : a.layer_s) {
    std::cout << layer << " " << number(s) << "\n";
  }
  const std::vector<std::string> errors = attribution_errors(a);
  for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";
  return errors.empty() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload sweep-theorem|sweep-replicas|"
               "scale-sharded|daemon-mixed --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|smoke] [--meta-git-rev <rev>] "
               "[--meta-dirty <0|1>] [--expect-digest <hex>] "
               "[--break-crosscheck]\n"
               "       perfbench --check-spans <trace.jsonl>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string git_rev = "unknown", dirty = "unknown", size = "full";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--break-crosscheck") {
      o.break_crosscheck = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--check-spans") return check_spans(value);
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--size") size = value;
    else if (arg == "--meta-git-rev") git_rev = value;
    else if (arg == "--meta-dirty") dirty = value;
    else if (arg == "--expect-digest") o.expect_digest = value;
    else return usage();
  }
  if (o.seconds <= 0 || (size != "full" && size != "smoke")) return usage();
  o.size = Size::named(size);

  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to record results from a "
              << PERFBENCH_BUILD_TYPE << " build (Release only)\n";
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  o.meta_json = "{\"git_rev\": " + json_string(git_rev) +
                ", \"dirty\": " + json_string(dirty) +
                ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                ", \"nproc\": " + std::to_string(nproc) +
                ", \"workload\": " + json_string(o.workload) +
                ", \"seed\": " + std::to_string(o.seed) +
                ", \"seconds\": " + number(o.seconds) +
                ", \"trace\": " + (o.trace ? "1" : "0") +
                ", \"size\": " + json_string(size) + "}";
  if (o.trace) mkdir(o.out_dir.c_str(), 0755);

  Result r;
  try {
    if (o.workload == "sweep-theorem") r = run_theorem(o);
    else if (o.workload == "sweep-replicas") r = run_replicas(o);
    else if (o.workload == "scale-sharded") r = run_scale(o);
    else if (o.workload == "daemon-mixed") r = run_daemon(o);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!o.expect_digest.empty()) {
    r.check(r.digest == o.expect_digest,
            "JSONL digest " + r.digest + " != expected " + o.expect_digest);
  }
  r.check(r.failed == 0, std::to_string(r.failed) + " of " +
                             std::to_string(r.attempted) + " failed");

  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) failures += ", ";
    failures += json_string(r.failures[i]);
    std::cerr << "perfbench: FAILED: " << r.failures[i] << "\n";
  }
  failures += "]";
  std::string rates;
  for (std::size_t i = 0; i < r.window_rates.size(); ++i) {
    rates += (i ? ", " : "") + number(r.window_rates[i]);
  }
  std::cout << "perfbench-detail {\"meta\": " << o.meta_json
            << ", \"digest\": " << json_string(r.digest)
            << ", \"metrics\": " << figures(r.metrics, true)
            << ", \"details\": " << figures(r.details, true)
            << ", \"window_cells_per_cpu_s\": [" << rates << "]"
            << ", \"failures\": " << failures << "}\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << figures(r.metrics, false) << "}"
            << std::endl;
  return r.correct ? 0 : 1;
}
