// asyncrvd — the resident experiment daemon (DESIGN.md §9).
//
//   asyncrvd --socket /tmp/asyncrvd.sock --cache-dir /var/cache/asyncrv
//            --memory-cap 64m --jobs 2
//
// Serves asyncrv.proto.v1 on a Unix-domain socket until DRAIN/SHUTDOWN or
// SIGTERM/SIGINT, each of which drains gracefully: admitted work finishes,
// results flush, exit code 0.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "obs/trace.h"
#include "service/server.h"
#include "util/text.h"

namespace {

asyncrv::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->signal_drain();
}

/// "<n>[k|m|g]" in bytes; nullopt on malformed input.
std::optional<std::uint64_t> parse_bytes(std::string s) {
  std::uint64_t scale = 1;
  if (!s.empty()) {
    const char suffix = s.back();
    if (suffix == 'k' || suffix == 'K') scale = 1ull << 10;
    if (suffix == 'm' || suffix == 'M') scale = 1ull << 20;
    if (suffix == 'g' || suffix == 'G') scale = 1ull << 30;
    if (scale != 1) s.pop_back();
  }
  const auto v = asyncrv::parse_u64(s);
  if (!v) return std::nullopt;
  return *v * scale;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --socket <path>       listen here (default /tmp/asyncrvd.sock)\n"
      << "  --cache-dir <dir>     persistent sweep cache (default: none)\n"
      << "  --memory-cap <bytes>  LRU-evict interned graphs past this\n"
      << "                        footprint (accepts k/m/g; default: none)\n"
      << "  --jobs <n>            concurrent pipeline jobs (default 2)\n"
      << "  --request-threads <n> pipeline threads per job (0 = hardware)\n"
      << "  --queue <n>           queued jobs beyond active before busy\n"
      << "  --batch-size <n>      lockstep-engine lanes per batch\n"
      << "  --no-batch            run every cell on the scalar engine\n"
      << "  --trace-out <path>    record spans (daemon jobs, pipeline\n"
      << "                        stages) and write Chrome trace_event\n"
      << "                        JSON here on exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  asyncrv::service::ServerOptions options;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto number = [&](std::uint64_t& out) {
      const char* v = value();
      if (v == nullptr) return false;
      const auto parsed = parse_bytes(v);
      if (!parsed) return false;
      out = *parsed;
      return true;
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      options.socket_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      options.cache_dir = v;
    } else if (arg == "--memory-cap") {
      if (!number(options.memory_cap)) return usage(argv[0]);
    } else if (arg == "--jobs") {
      if (!number(n) || n < 1 || n > 256) return usage(argv[0]);
      options.jobs = static_cast<int>(n);
    } else if (arg == "--request-threads") {
      if (!number(n) || n > 1024) return usage(argv[0]);
      options.threads_per_job = static_cast<int>(n);
    } else if (arg == "--queue") {
      if (!number(n) || n > 100000) return usage(argv[0]);
      options.max_queue = static_cast<int>(n);
    } else if (arg == "--batch-size") {
      if (!number(n) || n < 1) return usage(argv[0]);
      options.batch_size = static_cast<std::size_t>(n);
    } else if (arg == "--no-batch") {
      options.batch = false;
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return usage(argv[0]);
      trace_out = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]);
    }
  }

  try {
    if (!trace_out.empty()) asyncrv::obs::Tracer::global().enable();
    asyncrv::service::Server server(options);
    server.bind();
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    std::cout << "asyncrvd listening on " << options.socket_path
              << (options.cache_dir.empty()
                      ? std::string()
                      : " (cache " + options.cache_dir + ")")
              << std::endl;
    const int rc = server.run();
    g_server = nullptr;
    if (!trace_out.empty() &&
        !asyncrv::obs::Tracer::global().write_chrome_json(trace_out)) {
      std::cerr << "asyncrvd: could not write trace to " << trace_out << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "asyncrvd: " << e.what() << "\n";
    return 1;
  }
}
