// A command-line driver for the rendezvous simulator — the tool a
// downstream user reaches for first.
//
// Usage:
//   rv_cli [family] [n] [label_a] [label_b] [adversary] [seed]
//          [--csv <path>] [--jsonl <path>] [--cache-dir <dir>]
//   rv_cli search <graph-id> [objective] [optimizer] [evals] [seed]
//          [--csv <path>] [--jsonl <path>] [--cache-dir <dir>]
//
//   family     ring | path | complete | star | grid | torus | tree |
//              lollipop | petersen | hypercube          (default ring)
//   n          graph size parameter                      (default 6)
//   label_a/b  positive integer labels                   (default 5, 12)
//   adversary  fair | random | stall | burst | oscillating | avoider |
//              phase | skew                              (default random)
//   seed       adversary seed                            (default 42)
//
//   --csv/--jsonl write the typed result row to machine-readable sinks;
//   --cache-dir makes re-runs of the same instance load the recorded
//   outcome (including the schedule) from the persistent sweep cache.
//
// The instance is assembled into a typed RendezvousSpec (with schedule
// recording on) and executed by the experiment pipeline; the tool prints
// the instance (including its DOT rendering) and the traced schedule
// statistics.
//
// The `search` mode runs an optimizing worst-case adversary instead
// (src/search/, DESIGN.md §6): <graph-id> is any registry id ("petersen",
// "ring:12", "rreg:10,3@7"), objective is rv-cost | esst-phase |
// pi-margin (default rv-cost), optimizer is random | hill | anneal
// (default hill). Agents start at node 0 and the BFS-farthest node from
// it (adjacent starts would make every schedule meet instantly). The
// tool prints the worst schedule found (its genome, replayable), re-runs
// it to demonstrate the bit-identical replay, and reports any soundness
// violations loudly. Searches cache like any other scenario: re-running
// with --cache-dir is instant.
// The `daemon` command family talks to (or starts) the resident asyncrvd
// service (src/service/, DESIGN.md §9) in a fluent verb style:
//
//   rv_cli daemon start [--socket S] [--cache-dir D] [--memory-cap B]
//                       [--jobs N] [--foreground]
//   rv_cli daemon status | ping | metrics | drain | stop | evict [bytes]
//   rv_cli daemon run [family] [n] [label_a] [label_b] [adversary] [seed]
//   rv_cli daemon sweep e9 [--jsonl <path>]
//
// `daemon run` assembles the SAME spec the local default mode would, so a
// daemon with --cache-dir shares outcomes with batch runs byte-for-byte;
// `daemon sweep e9` submits the shared E9 battery (runner::e9_battery) and
// reports the daemon's end-line stats, including how many cells actually
// executed — the second submission of a warm daemon reports executed=0.
// The socket defaults to $ASYNCRVD_SOCKET, then /tmp/asyncrvd.sock.
//
// The `sweep scale` mode drives the sharded million-cell regime
// (DESIGN.md §10): partitions the scale_grid family into K fingerprint
// shards, forks one worker per shard against the shared --cache-dir, then
// merges by re-running the full grid through one pipeline (executed must
// be 0; rows land in --csv/--jsonl). Re-running after any interruption —
// including a worker lost to kill -9 — resumes from the committed cells:
//
//   rv_cli sweep scale [cells] --cache-dir D [--shards K]
//          [--shard-index I] [--kill-worker W --kill-after N] [pipeline flags]
//
// --shard-index runs one shard in-process and skips the merge (the
// cross-machine mode: point every machine at one shared cache dir).
// --kill-worker/--kill-after are fault injection for the resumption
// acceptance test. `rv_cli cache pack --cache-dir D` compacts the
// directory's pack segments into one sealed segment.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "graph/io.h"
#include "runner/cli.h"
#include "runner/registry.h"
#include "runner/shard.h"
#include "search/objective.h"
#include "service/client.h"
#include "service/server.h"
#include "util/text.h"

namespace {

using namespace asyncrv;

std::string family_graph_id(const std::string& family, Node n) {
  if (family == "grid" || family == "torus") {
    return family + ":" + std::to_string(n) + "x" + std::to_string(n);
  }
  if (family == "tree") return "tree:" + std::to_string(n) + ":7";
  if (family == "lollipop") {
    return "lollipop:" + std::to_string(n) + ":" + std::to_string(n / 2);
  }
  if (family == "petersen") return "petersen";
  return family + ":" + std::to_string(n);
}

/// The node farthest from node 0 (smallest id among ties, by BFS): the
/// least degenerate default placement — adjacent starts (a ring's 0 and
/// n-1) cap every schedule at a near-instant meeting and make the search
/// pointless.
Node farthest_from_zero(const Graph& g) {
  std::vector<int> dist(g.size(), -1);
  std::vector<Node> queue = {0};
  dist[0] = 0;
  Node best = g.size() - 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Node v = queue[head];
    if (dist[v] > dist[best] || (dist[v] == dist[best] && v < best)) best = v;
    for (Port p = 0; p < g.degree(v); ++p) {
      const Node to = g.step(v, p).to;
      if (dist[to] < 0) {
        dist[to] = dist[v] + 1;
        queue.push_back(to);
      }
    }
  }
  return best;
}

/// The `search` mode: optimize an adversarial schedule, print and replay
/// the winner. Returns the process exit code.
int run_search_mode(runner::PipelineCli& cli,
                    const std::vector<std::string>& args) {
  if (args.size() > 6) {
    std::cerr << "usage: rv_cli search <graph-id> [objective] [optimizer] "
                 "[evals] [seed] "
              << runner::PipelineCli::flags_help() << "\n";
    return 1;
  }
  runner::SearchSpec se;
  se.graph = args.size() > 1 ? args[1] : "petersen";
  se.objective = args.size() > 2 ? args[2] : "rv-cost";
  se.optimizer = args.size() > 3 ? args[3] : "hill";
  if (args.size() > 4) {
    // Signed parse + range check: stoull would wrap "-1" into 1.8e19
    // evaluations and hang the process.
    const long long evals = std::stoll(args[4]);
    if (evals < 1 || evals > 100'000'000) {
      std::cerr << "error: evals must be in [1, 100000000], got " << args[4]
                << "\n";
      return 1;
    }
    se.evaluations = static_cast<std::uint64_t>(evals);
  } else {
    se.evaluations = 240;
  }
  if (args.size() > 5) {
    if (args[5].empty() ||
        args[5].find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << "error: seed must be a non-negative integer, got "
                << args[5] << "\n";
      return 1;
    }
    se.seed = std::stoull(args[5]);
  }
  se.labels = {5, 12};
  se.budget = se.objective == "esst-phase" ? 25'000 : 40'000;

  const Graph g = runner::make_graph(se.graph);
  se.starts = {0, farthest_from_zero(g)};
  const runner::ExperimentSpec spec{.name = "", .scenario = se};

  std::cout << "searching: " << se.graph << " (" << g.summary() << "), "
            << se.objective << " via " << se.optimizer << ", "
            << se.evaluations << " evaluations (seed " << se.seed << ")\n";
  std::cout << "fingerprint: " << spec.fingerprint().hex() << "\n";

  const runner::PipelineReport report =
      runner::ExperimentPipeline(cli.options()).run({spec});
  const runner::ExperimentOutcome& out = report.outcomes.front();
  if (out.status == runner::RunStatus::Error) {
    std::cerr << "error: " << out.error << "\n";
    return 1;
  }
  const runner::SearchOutcome& so = *out.search();
  if (cli.has_cache() && report.cache_hits > 0) {
    std::cout << "(outcome served from cache " << cli.cache_dir()
              << ", fingerprint " << spec.fingerprint().hex() << ")\n";
  }
  std::cout << "best score " << so.best_score << " (cost " << so.best_cost
            << ", met " << (so.best_met ? "yes" : "no");
  if (se.objective == "esst-phase") std::cout << ", phase " << so.best_phase;
  std::cout << ") after " << so.evaluations << " evaluations, "
            << so.improvements << " improvements\n";
  if (so.bound > 0) std::cout << "soundness bound: " << so.bound << "\n";
  if (se.objective == "pi-margin" && se.budget <= so.bound / 2) {
    std::cout << "(budget " << se.budget
              << " caps evaluations below pi_hat/2 — measuring slack; "
                 "violations are out of reach at this budget)\n";
  }
  if (so.violations > 0) {
    std::cout << "*** " << so.violations
              << " SOUNDNESS VIOLATION(S) FOUND — see DESIGN.md §6\n";
  }
  std::cout << "worst schedule genome: " << so.best_genome << "\n";

  // Replay the persisted genome from scratch: same spec + same genome =
  // the same run, bit for bit.
  const auto genome = search::ScheduleGenome::from_text(so.best_genome);
  if (!genome) {
    std::cerr << "error: winning genome failed to parse: " << so.best_genome
              << "\n";
    return 1;
  }
  const TrajKit kit(runner::make_ppoly(se.ppoly), se.kit_seed);
  const search::Evaluation replay =
      search::evaluate(runner::search_problem(se, g, kit), *genome, nullptr);
  std::cout << "replay: score " << replay.score << ", cost " << replay.cost
            << (replay.score == so.best_score && replay.cost == so.best_cost
                    ? " — bit-identical to the search's winner\n"
                    : " — MISMATCH (engine determinism bug!)\n");
  return replay.score == so.best_score ? 0 : 3;
}

// --- sharded sweep + cache maintenance ---------------------------------------

/// Strict non-negative integer or die with a usage hint.
std::uint64_t parse_count_or_die(const std::string& what,
                                 const std::string& v) {
  const auto parsed = parse_u64(v);
  if (!parsed) {
    std::cerr << "error: bad " << what << " value: " << v << "\n";
    std::exit(1);
  }
  return *parsed;
}

/// `rv_cli sweep scale` — the sharded, resumable big-grid driver.
int run_sweep_scale_mode(runner::PipelineCli& cli,
                         const std::vector<std::string>& args) {
  const auto usage = [] {
    std::cerr << "usage: rv_cli sweep scale [cells] --cache-dir <dir> "
                 "[--shards <k>] [--shard-index <i>] "
                 "[--kill-worker <i> --kill-after <n>] "
              << runner::PipelineCli::flags_help() << "\n";
    return 1;
  };
  std::uint64_t cells = 20'000;
  int shards = 4;
  int shard_index = -1;
  int kill_worker = -1;
  std::uint64_t kill_after = 0;
  bool have_cells = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "error: missing value after " << arg << "\n";
        std::exit(1);
      }
      return args[++i];
    };
    if (arg == "--shards") {
      shards = static_cast<int>(parse_count_or_die(arg, value()));
    } else if (arg == "--shard-index") {
      shard_index = static_cast<int>(parse_count_or_die(arg, value()));
    } else if (arg == "--kill-worker") {
      kill_worker = static_cast<int>(parse_count_or_die(arg, value()));
    } else if (arg == "--kill-after") {
      kill_after = parse_count_or_die(arg, value());
    } else if (!have_cells && !arg.empty() && arg[0] != '-') {
      cells = parse_count_or_die("cells", arg);
      have_cells = true;
    } else {
      return usage();
    }
  }
  if (shards < 1 || shards > 1024 || cells == 0 ||
      (kill_worker >= 0) != (kill_after > 0)) {
    return usage();
  }
  if (!cli.has_cache()) {
    std::cerr << "error: sweep scale needs --cache-dir (the shared "
                 "coordination substrate)\n";
    return 1;
  }

  const std::vector<runner::ExperimentSpec> specs = runner::scale_grid(cells);
  const auto plan = runner::plan_shards(specs, shards);
  std::cout << "plan: " << cells << " cells -> " << shards << " shards\n";
  for (int k = 0; k < shards; ++k) {
    std::cout << "shard " << k << ": " << plan[static_cast<std::size_t>(k)].size()
              << " cells\n";
  }

  if (shard_index >= 0) {
    // Cross-machine mode: this invocation IS one worker; some other
    // invocation merges once every shard has run.
    if (shard_index >= shards) return usage();
    runner::ShardWorkerOptions wopts;
    wopts.cache_dir = cli.cache_dir();
    wopts.threads = cli.threads();
    wopts.batch = true;
    wopts.progress = cli.progress();
    wopts.kill_after = kill_after;
    const runner::ShardWorkerStats s =
        runner::run_shard(specs, plan[static_cast<std::size_t>(shard_index)], wopts);
    std::cout << "shard " << shard_index << " done: cells=" << s.cells
              << " hits=" << s.hits << " executed=" << s.executed
              << " fsyncs=" << s.fsyncs << " store_bytes=" << s.store_bytes
              << "\n";
    return 0;
  }

  runner::ShardDriverOptions dopts;
  dopts.cache_dir = cli.cache_dir();
  dopts.shards = shards;
  dopts.threads_per_worker = cli.threads();
  dopts.batch = true;
  dopts.progress = cli.progress();
  dopts.kill_worker = kill_worker;
  dopts.kill_after = kill_after;
  const runner::ShardRun run = runner::run_sharded(specs, dopts);
  for (const runner::ShardWorkerResult& w : run.workers) {
    std::cout << "worker " << w.shard << " (pid " << w.pid << "): ";
    if (WIFSIGNALED(w.wait_status)) {
      std::cout << "killed by signal " << WTERMSIG(w.wait_status) << "\n";
    } else if (!WIFEXITED(w.wait_status) || WEXITSTATUS(w.wait_status) != 0 ||
               !w.reported) {
      std::cout << "exited "
                << (WIFEXITED(w.wait_status) ? WEXITSTATUS(w.wait_status) : -1)
                << " without a report\n";
    } else {
      std::cout << "exited 0, hits=" << w.stats.hits
                << " executed=" << w.stats.executed
                << " fsyncs=" << w.stats.fsyncs
                << " store_bytes=" << w.stats.store_bytes << "\n";
    }
  }
  // Fleet totals: every worker's registry snapshot rode its pipe and
  // merged into one cross-process view — print the headline counters.
  if (!run.fleet_metrics.empty()) {
    const auto c = [&](const char* name) -> std::uint64_t {
      const auto it = run.fleet_metrics.counters.find(name);
      return it == run.fleet_metrics.counters.end() ? 0 : it->second;
    };
    std::cout << "fleet metrics: cells=" << c("pipeline.cells")
              << " hits=" << c("pipeline.cache_hits")
              << " executed=" << c("pipeline.executed")
              << " batched_lanes=" << c("pipeline.batched_lanes")
              << " engine_sweeps=" << c("engine.sweeps") + c("batch.sweeps")
              << " fsyncs=" << c("sweepcache.fsyncs")
              << " store_bytes=" << c("sweepcache.store_bytes") << "\n";
  }
  if (!run.ok()) {
    // Never merge over a dead worker's hole: an in-process merge would
    // silently re-execute its missing cells and defeat every committed-cell
    // assertion. Re-running the driver resumes from the committed prefix.
    std::cerr << "sweep incomplete: a worker failed — re-run to resume from "
                 "the committed cells\n";
    return 4;
  }

  // Merge/verify: the whole grid through ONE pipeline against the shared
  // cache. Every cell must be a hit, and pipeline determinism makes the
  // emitted rows byte-identical to a single-process run at any shard count.
  // A fresh cache object: the CLI's own opened before the workers appended
  // their segments, and a cache sees only segments present at open.
  runner::SweepCache merge_cache(cli.cache_dir());
  runner::PipelineOptions popts = cli.options();
  popts.cache = &merge_cache;
  popts.batch = true;
  const runner::PipelineReport report =
      runner::ExperimentPipeline(popts).run(specs);
  std::cout << "merge: " << report.summary() << "\n";
  std::cout << "sweep: cells=" << cells << " hits=" << report.cache_hits
            << " executed=" << report.executed << " shards=" << shards << "\n";
  if (report.executed != 0) {
    std::cerr << "error: merge re-executed " << report.executed
              << " cells — the workers' commits did not cover the grid\n";
    return 3;
  }
  return 0;
}

/// `rv_cli cache pack` — offline compaction of a cache directory.
int run_cache_mode(runner::PipelineCli& cli,
                   const std::vector<std::string>& args) {
  if (args.size() != 2 || args[1] != "pack" || !cli.has_cache()) {
    std::cerr << "usage: rv_cli cache pack --cache-dir <dir>\n";
    return 1;
  }
  const runner::SweepCache::CompactStats cs = cli.cache()->compact();
  std::cout << "packed " << cli.cache_dir() << ": " << cs.records
            << " records (" << cs.bytes << " bytes) in one segment, "
            << cs.segments_merged << " segments merged\n";
  return 0;
}

// --- daemon command family ---------------------------------------------------

service::Server* g_daemon = nullptr;
void daemon_signal(int) {
  if (g_daemon != nullptr) g_daemon->signal_drain();
}

std::string default_socket() {
  const char* env = std::getenv("ASYNCRVD_SOCKET");
  return env != nullptr ? env : "/tmp/asyncrvd.sock";
}

/// "<n>[k|m|g]" in bytes.
std::optional<std::uint64_t> parse_byte_size(std::string s) {
  std::uint64_t scale = 1;
  if (!s.empty()) {
    const char c = s.back();
    if (c == 'k' || c == 'K') scale = 1ull << 10;
    if (c == 'm' || c == 'M') scale = 1ull << 20;
    if (c == 'g' || c == 'G') scale = 1ull << 30;
    if (scale != 1) s.pop_back();
  }
  const auto v = parse_u64(s);
  if (!v) return std::nullopt;
  return *v * scale;
}

int daemon_usage() {
  std::cerr
      << "usage: rv_cli daemon <command> [--socket <path>]\n"
      << "  start   [--cache-dir <dir>] [--memory-cap <bytes>] [--jobs <n>]\n"
      << "          [--queue <n>] [--no-batch] [--foreground]\n"
      << "  status | ping | metrics | drain | stop | evict [bytes]\n"
      << "  run     [family] [n] [label_a] [label_b] [adversary] [seed]\n"
      << "  sweep   e9 [--jsonl <path>]\n";
  return 1;
}

/// Runs the server in this process (the child of `start`, or --foreground).
int serve(const service::ServerOptions& options) {
  service::Server server(options);
  server.bind();
  g_daemon = &server;
  std::signal(SIGTERM, daemon_signal);
  std::signal(SIGINT, daemon_signal);
  std::signal(SIGPIPE, SIG_IGN);
  std::cout << "asyncrvd listening on " << options.socket_path << std::endl;
  const int rc = server.run();
  g_daemon = nullptr;
  return rc;
}

service::Client connect_or_die(const std::string& socket, int retry_ms = 0) {
  service::Client client;
  if (!client.connect(socket, retry_ms)) {
    std::cerr << "error: " << client.last_error()
              << " (is the daemon running? `rv_cli daemon start`)\n";
    std::exit(1);
  }
  return client;
}

int run_daemon_mode(int argc, char** argv) {
  std::vector<std::string> pos;
  service::ServerOptions sopts;
  sopts.socket_path = default_socket();
  bool foreground = false;
  std::string jsonl_path;
  std::string command;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto byte_value = [&](std::uint64_t& out) {
      const char* v = value();
      if (v == nullptr) return false;
      const auto parsed = parse_byte_size(v);
      if (!parsed) return false;
      out = *parsed;
      return true;
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return daemon_usage();
      sopts.socket_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = value();
      if (v == nullptr) return daemon_usage();
      sopts.cache_dir = v;
    } else if (arg == "--memory-cap") {
      if (!byte_value(sopts.memory_cap)) return daemon_usage();
    } else if (arg == "--jobs") {
      if (!byte_value(n) || n < 1 || n > 256) return daemon_usage();
      sopts.jobs = static_cast<int>(n);
    } else if (arg == "--queue") {
      if (!byte_value(n) || n > 100000) return daemon_usage();
      sopts.max_queue = static_cast<int>(n);
    } else if (arg == "--request-threads") {
      if (!byte_value(n) || n > 1024) return daemon_usage();
      sopts.threads_per_job = static_cast<int>(n);
    } else if (arg == "--no-batch") {
      sopts.batch = false;
    } else if (arg == "--foreground") {
      foreground = true;
    } else if (arg == "--jsonl") {
      const char* v = value();
      if (v == nullptr) return daemon_usage();
      jsonl_path = v;
    } else if (command.empty()) {
      command = arg;
    } else {
      pos.push_back(arg);
    }
  }
  if (command.empty()) return daemon_usage();

  if (command == "start") {
    if (foreground) return serve(sopts);
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "error: fork failed\n";
      return 1;
    }
    if (pid == 0) {
      // The daemon child. _exit keeps the parent's atexit/stdio state from
      // being torn down twice.
      try {
        _exit(serve(sopts));
      } catch (const std::exception& e) {
        std::cerr << "asyncrvd: " << e.what() << "\n";
        _exit(1);
      }
    }
    service::Client probe;
    if (!probe.connect(sopts.socket_path, /*retry_ms=*/5000) ||
        !probe.ping()) {
      std::cerr << "error: daemon did not come up on " << sopts.socket_path
                << "\n";
      return 1;
    }
    std::cout << "daemon ready on " << sopts.socket_path << " (pid " << pid
              << ")\n";
    return 0;
  }

  if (command == "status") {
    service::Client client = connect_or_die(sopts.socket_path);
    const auto kv = client.status();
    if (!kv) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    for (const auto& [key, val] : *kv) std::cout << key << "=" << val << "\n";
    return 0;
  }

  if (command == "ping") {
    service::Client client = connect_or_die(sopts.socket_path);
    if (!client.ping()) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << "pong\n";
    return 0;
  }

  if (command == "metrics") {
    // The daemon's live obs::MetricsRegistry snapshot, re-emitted in its
    // exact asyncrv.metrics.v1 wire form (so the output pipes into any
    // from_text consumer).
    service::Client client = connect_or_die(sopts.socket_path);
    const auto snap = client.metrics();
    if (!snap) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << snap->to_text();
    return 0;
  }

  if (command == "evict") {
    service::Client client = connect_or_die(sopts.socket_path);
    std::optional<std::uint64_t> cap;
    if (!pos.empty()) {
      cap = parse_byte_size(pos[0]);
      if (!cap) return daemon_usage();
    }
    const auto head = client.evict(cap);
    if (!head || !head->ok) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << head->info << "\n";
    return 0;
  }

  if (command == "drain") {
    service::Client client = connect_or_die(sopts.socket_path);
    if (!client.drain()) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << "drained\n";
    return 0;
  }

  if (command == "stop") {
    service::Client client = connect_or_die(sopts.socket_path);
    if (!client.shutdown()) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << "shutting down\n";
    return 0;
  }

  if (command == "run") {
    // The same spec the local default mode assembles, submitted remotely —
    // a daemon with --cache-dir therefore shares outcomes with batch runs.
    if (pos.size() > 6) return daemon_usage();
    runner::RendezvousSpec rv;
    const std::string family = !pos.empty() ? pos[0] : "ring";
    const long n_arg = pos.size() > 1 ? std::stol(pos[1]) : 6;
    if (n_arg < 2 || n_arg > 100000) {
      std::cerr << "error: graph size must be in [2, 100000]\n";
      return 1;
    }
    rv.graph = family_graph_id(family, static_cast<Node>(n_arg));
    rv.labels = {pos.size() > 2 ? std::stoull(pos[2]) : 5,
                 pos.size() > 3 ? std::stoull(pos[3]) : 12};
    rv.adversary = pos.size() > 4 ? pos[4] : "random";
    rv.seed = pos.size() > 5 ? std::stoull(pos[5]) : 42;
    rv.budget = 50'000'000;
    rv.record_schedule = true;
    const Graph g = runner::make_graph(rv.graph);
    rv.starts = {0, g.size() - 1};
    const runner::ExperimentSpec spec{.name = "", .scenario = rv};
    std::cout << "fingerprint: " << spec.fingerprint().hex() << "\n";

    service::Client client = connect_or_die(sopts.socket_path);
    const auto stats = client.run(
        spec, [](const std::string& row) { std::cout << row << "\n"; });
    if (!stats) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << stats->scenarios << " scenarios: ok=" << stats->ok
              << " unresolved=" << stats->unresolved
              << " errors=" << stats->errors
              << ", cache_hits=" << stats->cache_hits
              << " executed=" << stats->executed << "\n";
    return stats->errors == 0 ? 0 : 2;
  }

  if (command == "sweep") {
    if (pos.empty() || pos[0] != "e9") {
      std::cerr << "error: the named sweeps are: e9\n";
      return daemon_usage();
    }
    const std::vector<runner::ExperimentSpec> specs = runner::e9_battery();
    std::ofstream jsonl;
    if (!jsonl_path.empty()) {
      jsonl.open(jsonl_path);
      if (!jsonl) {
        std::cerr << "error: cannot write " << jsonl_path << "\n";
        return 1;
      }
    }
    service::Client client = connect_or_die(sopts.socket_path);
    std::uint64_t rows = 0;
    const auto stats = client.sweep(specs, [&](const std::string& row) {
      ++rows;
      if (jsonl.is_open()) jsonl << row << "\n";
    });
    if (!stats) {
      std::cerr << "error: " << client.last_error() << "\n";
      return 1;
    }
    std::cout << "e9: " << stats->scenarios << " scenarios (" << rows
              << " rows): ok=" << stats->ok
              << " unresolved=" << stats->unresolved
              << " errors=" << stats->errors
              << ", cache_hits=" << stats->cache_hits
              << " executed=" << stats->executed
              << " batched=" << stats->batched << "\n";
    return stats->errors == 0 ? 0 : 2;
  }

  std::cerr << "error: unknown daemon command: " << command << "\n";
  return daemon_usage();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace asyncrv;
  // The daemon family has its own flag set — route it before PipelineCli
  // can claim --cache-dir and friends.
  if (argc > 1 && std::string(argv[1]) == "daemon") {
    try {
      return run_daemon_mode(argc, argv);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  try {
    runner::PipelineCli cli;
    const std::vector<std::string> args = cli.parse(argc, argv);
    if (!args.empty() && args[0] == "search") return run_search_mode(cli, args);
    if (!args.empty() && args[0] == "sweep") {
      if (args.size() < 2 || args[1] != "scale") {
        std::cerr << "error: the named sweeps are: scale\n";
        return 1;
      }
      return run_sweep_scale_mode(cli, {args.begin() + 1, args.end()});
    }
    if (!args.empty() && args[0] == "cache") return run_cache_mode(cli, args);
    if (args.size() > 6) {
      std::cerr << "usage: rv_cli [family] [n] [label_a] [label_b] "
                   "[adversary] [seed] "
                << runner::PipelineCli::flags_help() << "\n";
      return 1;
    }
    const std::string family = !args.empty() ? args[0] : "ring";
    // Signed parse + range check: stoul would wrap "-3" into a
    // 4-billion-node graph request.
    const long n_arg = args.size() > 1 ? std::stol(args[1]) : 6;
    if (n_arg < 2 || n_arg > 100000) {
      std::cerr << "error: graph size must be in [2, 100000], got " << n_arg
                << "\n";
      return 1;
    }
    const Node n = static_cast<Node>(n_arg);
    const std::uint64_t la = args.size() > 2 ? std::stoull(args[2]) : 5;
    const std::uint64_t lb = args.size() > 3 ? std::stoull(args[3]) : 12;
    const std::string adv_name = args.size() > 4 ? args[4] : "random";
    const std::uint64_t seed = args.size() > 5 ? std::stoull(args[5]) : 42;

    runner::RendezvousSpec rv;
    rv.graph = family_graph_id(family, n);
    rv.adversary = adv_name;
    rv.seed = seed;
    rv.labels = {la, lb};
    rv.budget = 50'000'000;
    rv.record_schedule = true;

    const Graph g = runner::make_graph(rv.graph);
    rv.starts = {0, g.size() - 1};
    const runner::ExperimentSpec spec{.name = "", .scenario = rv};

    std::cout << "instance: " << family << " (" << g.summary() << ")\n";
    std::cout << "labels: " << la << " vs " << lb << ", adversary: " << adv_name
              << " (seed " << seed << ")\n";
    std::cout << "fingerprint: " << spec.fingerprint().hex() << "\n\n";
    std::cout << to_dot(g, family) << "\n";

    // A single-cell pipeline batch: the row goes to any configured CSV /
    // JSONL sinks, and --cache-dir turns re-runs into cache hits.
    const runner::PipelineReport report =
        runner::ExperimentPipeline(cli.options()).run({spec});
    const runner::ExperimentOutcome& out = report.outcomes.front();
    if (out.status == runner::RunStatus::Error) {
      std::cerr << "error: " << out.error << "\n";
      return 1;
    }
    if (cli.has_cache() && report.cache_hits > 0) {
      std::cout << "(outcome served from cache " << cli.cache_dir()
                << ", fingerprint " << spec.fingerprint().hex() << ")\n";
    }

    // Schedule-shape statistics from the recorded adversary decisions.
    const runner::RendezvousOutcome& res = *out.rendezvous();
    std::cout << make_trace_stats(res.result, res.schedule).summary() << "\n";
    if (!out.ok()) return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
