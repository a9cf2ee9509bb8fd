// asyncrvd — the resident experiment service (DESIGN.md §9).
//
// One process owns the expensive, reusable state of the experiment
// pipeline — the interned GraphCache, the persistent SweepCache, a pool of
// pipeline worker threads — and serves RUN/SWEEP/SEARCH requests over a
// local Unix-domain socket, speaking asyncrv.proto.v1 (service/protocol.h).
// A request ships canonical spec forms, so daemon runs fingerprint (and
// therefore cache) identically to batch runs of the same specs; streamed
// `row` payloads are byte-identical to the JsonlSink lines a local
// ExperimentPipeline would emit, in spec order.
//
// Threading model:
//
//  * The MAIN thread runs a poll() event loop: it accepts connections,
//    feeds each connection's RequestParser, answers control verbs
//    (PING/STATUS/EVICT/...) inline, admits jobs, and owns every
//    connection's write buffer. All response lines are appended whole, so
//    frames are line-atomic by construction.
//  * JOB worker threads (ServerOptions::jobs) pull admitted jobs off a
//    bounded queue and run each through an ExperimentPipeline (with
//    `threads_per_job` pipeline workers, batch mode on by default). They
//    never touch sockets: output is posted to a mutex-protected outbox and
//    a self-pipe byte wakes the main loop to route it — to the submitting
//    connection by generation id (a client that disconnected mid-job just
//    drops its output; the work still completes and still populates the
//    caches), and to every SUBSCRIBE-d connection for event lines.
//
// Admission control: at most `jobs + max_queue` jobs in flight; beyond
// that a submission is rejected loudly with `err busy` (and counted), so
// an overloaded daemon degrades predictably instead of buffering without
// bound.
//
// STATUS: `jobs_completed`, `rows_streamed` and `busy_rejections` print
// the process metrics-registry counters `daemon.*` (DESIGN.md §11), the
// same numbers METRICS reports — there is no per-Server tally. asyncrvd
// runs one Server per process, so they count that daemon; a process that
// hosts several Servers sees their sum. The `graph_*` keys are this
// Server's own GraphCache.
//
// Memory cap: after every job, interned graphs are LRU-evicted until
// resident bytes fit `memory_cap` (GraphCache::evict_until), so a
// long-lived daemon serving large-graph sweeps keeps a bounded footprint
// while hot topologies stay resident.
//
// Drain: DRAIN (or SIGTERM via signal_drain()) stops admitting work,
// finishes everything already admitted, answers each drain-waiter with
// `ok drained`, tells subscribers `end drained`, flushes, and run()
// returns 0. SHUTDOWN is the impatient variant: queued-but-unstarted jobs
// are discarded (active ones finish — pipelines are not cancellable
// mid-scenario) and the socket closes immediately after.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runner/cache.h"
#include "runner/graph_cache.h"
#include "service/protocol.h"

namespace asyncrv::service {

struct ServerOptions {
  std::string socket_path = "/tmp/asyncrvd.sock";
  /// Sweep-cache directory; empty = no persistent cache.
  std::string cache_dir;
  /// Group-commit cadence of the sweep cache (DESIGN.md §10). The daemon
  /// opens the cache once at start, so it sees cells other processes
  /// append to the directory later only after a restart.
  runner::SweepCacheOptions cache;
  /// LRU-evict interned graphs down to this many resident bytes after
  /// every job; 0 = uncapped.
  std::uint64_t memory_cap = 0;
  int jobs = 2;             ///< concurrent pipeline jobs (worker threads)
  int threads_per_job = 0;  ///< pipeline threads per job; 0 = hardware
  /// Jobs allowed to wait beyond the `jobs` active ones before `err busy`.
  int max_queue = 8;
  bool batch = true;        ///< run rendezvous cells on the lockstep engine
  std::size_t batch_size = 256;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates, binds and listens on the Unix socket (unlinking any stale
  /// file at the path first). Separate from run() so a caller can start
  /// the loop on a thread AFTER the socket provably accepts connections.
  /// Throws std::runtime_error on failure.
  void bind();

  /// The event loop. Returns the process exit code: 0 after a graceful
  /// drain or shutdown. The socket file is unlinked on the way out.
  int run();

  /// Async-signal-safe drain trigger (a SIGTERM handler may call this):
  /// equivalent to a DRAIN request with no waiter.
  void signal_drain();

  const ServerOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;  ///< identity for output routing (never reused)
    RequestParser parser;
    std::string out;        ///< pending response bytes (main thread only)
    bool subscribed = false;
    bool drain_waiter = false;  ///< owed an `ok drained` at drain completion
  };

  struct Job {
    std::uint64_t id = 0;
    std::uint64_t conn_gen = 0;
    const char* kind = "sweep";  ///< response-head label: run|sweep|search
    std::vector<runner::ExperimentSpec> specs;
  };

  /// A worker→main message. `job_done` entries also carry the accounting
  /// side effects (in-flight decrement, drain check, post-job eviction).
  struct Outbound {
    std::uint64_t conn_gen = 0;  ///< 0 = broadcast to subscribers
    std::string bytes;
    bool job_done = false;
  };

  void worker_main();
  void run_job(const Job& job);
  void post(std::uint64_t conn_gen, std::string bytes, bool job_done = false);
  void drain_outbox();

  void accept_ready();
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  void close_connection(Connection& conn);
  void handle_request(Connection& conn, const Request& request);
  void admit_job(Connection& conn, const char* kind,
                 std::vector<runner::ExperimentSpec> specs);
  std::string status_response() const;
  /// "ok metrics" + the live registry snapshot in asyncrv.metrics.v1 text
  /// form (whose own `end` line terminates the frame).
  std::string metrics_response() const;
  void finish_drain();  ///< answer waiters/subscribers, mark loop done

  ServerOptions options_;
  std::optional<runner::SweepCache> cache_;
  runner::GraphCache graphs_;

  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;      ///< worker → main loop
  int signal_rd_ = -1, signal_wr_ = -1;  ///< signal handler → main loop
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t next_job_id_ = 1;

  // Main-thread state.
  bool draining_ = false;
  bool stopping_ = false;  ///< loop exit requested (drain done or SHUTDOWN)
  int in_flight_ = 0;      ///< admitted jobs not yet completed

  // Worker-shared state.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;

  std::mutex outbox_mutex_;
  std::vector<Outbound> outbox_;
};

}  // namespace asyncrv::service
