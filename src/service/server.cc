#include "service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/pipeline.h"

namespace asyncrv::service {

namespace {

/// The daemon's registry instruments (DESIGN.md §11) — the only tally of
/// its job, row and rejection events; STATUS prints these same counters.
struct DaemonInstruments {
  obs::Counter& jobs_completed =
      obs::metrics().counter("daemon.jobs_completed");
  obs::Counter& rows_streamed = obs::metrics().counter("daemon.rows_streamed");
  obs::Counter& busy_rejections =
      obs::metrics().counter("daemon.busy_rejections");
  obs::Histogram& job_ns = obs::metrics().histogram("daemon.job_ns");

  static DaemonInstruments& get() {
    static DaemonInstruments& in = *new DaemonInstruments();
    return in;
  }
};

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// A nonblocking, close-on-exec pipe (throws on failure).
void make_pipe(int& rd, int& wr) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  rd = fds[0];
  wr = fds[1];
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.max_queue < 0) options_.max_queue = 0;
  if (!options_.cache_dir.empty()) {
    cache_.emplace(options_.cache_dir, options_.cache);
  }
}

Server::~Server() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (auto& [fd, conn] : connections_) ::close(conn->fd);
  connections_.clear();
  close_if_open(listen_fd_);
  close_if_open(wake_rd_);
  close_if_open(wake_wr_);
  close_if_open(signal_rd_);
  close_if_open(signal_wr_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

void Server::bind() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  // A stale socket file from a dead daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; a live daemon re-creates
  // its file on the next accept cycle anyway, so unlink unconditionally.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("bind " + options_.socket_path + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));
  }
  make_pipe(wake_rd_, wake_wr_);
  make_pipe(signal_rd_, signal_wr_);
}

void Server::signal_drain() {
  // Async-signal-safe: a single write syscall on a pre-opened pipe.
  const char byte = 'D';
  [[maybe_unused]] const auto n = ::write(signal_wr_, &byte, 1);
}

// --- worker side -------------------------------------------------------------

void Server::post(std::uint64_t conn_gen, std::string bytes, bool job_done) {
  {
    const std::lock_guard<std::mutex> lock(outbox_mutex_);
    outbox_.push_back(Outbound{conn_gen, std::move(bytes), job_done});
  }
  const char byte = 'W';
  [[maybe_unused]] const auto n = ::write(wake_wr_, &byte, 1);
  // A full pipe is fine: the byte already in it wakes the main loop, which
  // drains the whole outbox every time.
}

void Server::worker_main() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void Server::run_job(const Job& job) {
  const obs::ObsSpan span("daemon.job", "daemon");
  const auto job_start = std::chrono::steady_clock::now();

  // The pipeline streams rows in spec order — what the wire promises, and
  // what makes the stream byte-comparable to a JSONL file of the same run —
  // so each row goes out as it arrives, its event line read off its cells.
  class JobStream final : public runner::ResultSink {
   public:
    JobStream(Server& server, const Job& job) : server_(server), job_(job) {}
    void begin(const runner::Schema& schema) override { schema_ = schema; }
    void row(const runner::Row& row) override {
      const auto col = [&](const char* name) {
        return runner::render_value(runner::cell(schema_, row, name));
      };
      DaemonInstruments::get().rows_streamed.add(1);
      server_.post(job_.conn_gen, "row " + runner::jsonl_line(schema_, row));
      server_.post(0, "event job=" + std::to_string(job_.id) +
                          " index=" + col("index") +
                          " of=" + std::to_string(job_.specs.size()) +
                          " status=" + col("status") +
                          " fingerprint=" + col("fingerprint") + "\n");
    }
    void end() override {}

   private:
    Server& server_;
    const Job& job_;
    runner::Schema schema_;
  };
  JobStream stream(*this, job);

  runner::PipelineOptions popts;
  popts.threads = options_.threads_per_job;
  popts.cache = cache_ ? &*cache_ : nullptr;
  popts.graph_cache = &graphs_;
  popts.batch = options_.batch;
  popts.batch_size = options_.batch_size;
  popts.sinks = {&stream};

  std::string tail;
  try {
    const runner::PipelineReport report =
        runner::ExperimentPipeline(popts).run(job.specs);
    tail = "end scenarios=" + std::to_string(report.totals.scenarios) +
           " ok=" + std::to_string(report.totals.succeeded) +
           " unresolved=" + std::to_string(report.totals.unresolved) +
           " errors=" + std::to_string(report.totals.errored) +
           " cache_hits=" + std::to_string(report.cache_hits) +
           " executed=" + std::to_string(report.executed) +
           " batched=" + std::to_string(report.batched) + "\n";
  } catch (const std::exception& e) {
    tail = err_line(ErrCode::Internal, e.what());
  } catch (...) {
    tail = err_line(ErrCode::Internal, "job failed");
  }
  DaemonInstruments::get().job_ns.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job_start)
          .count()));
  // The done event goes out BEFORE the job_done accounting entry, so a
  // subscriber watching a drain sees every job's done event ahead of the
  // final `end drained`.
  post(0, "event job=" + std::to_string(job.id) + " done\n");
  post(job.conn_gen, std::move(tail), /*job_done=*/true);
}

// --- main loop ---------------------------------------------------------------

void Server::drain_outbox() {
  std::vector<Outbound> pending;
  {
    const std::lock_guard<std::mutex> lock(outbox_mutex_);
    pending.swap(outbox_);
  }
  for (auto& out : pending) {
    for (auto& [fd, conn] : connections_) {
      if (out.conn_gen == 0 ? conn->subscribed : conn->gen == out.conn_gen) {
        conn->out += out.bytes;
      }
    }
    if (out.job_done) {
      --in_flight_;
      DaemonInstruments::get().jobs_completed.add(1);
      // Group-commit boundary: everything the finished job stored is
      // crash-durable before its `done` frame reaches the client. (The
      // pipeline already flushed at end of run; this is a cheap no-op
      // backstop that pins the contract at the protocol layer.)
      if (cache_) cache_->flush();
      if (options_.memory_cap > 0) graphs_.evict_until(options_.memory_cap);
      if (draining_ && in_flight_ == 0) finish_drain();
    }
  }
}

void Server::finish_drain() {
  for (auto& [fd, conn] : connections_) {
    if (conn->drain_waiter) {
      conn->out += ok_line("drained");
      conn->drain_waiter = false;
    }
    if (conn->subscribed) conn->out += "end drained\n";
  }
  stopping_ = true;
}

std::string Server::status_response() const {
  const runner::GraphCache::Stats g = graphs_.stats();
  std::string r = ok_line("status");
  const auto kv = [&r](const std::string& k, const std::string& v) {
    r += k + "=" + v + "\n";
  };
  const auto kvu = [&kv](const std::string& k, std::uint64_t v) {
    kv(k, std::to_string(v));
  };
  kv("server", "asyncrvd");
  kv("proto", kProtoVersion);
  kvu("jobs", static_cast<std::uint64_t>(options_.jobs));
  kvu("threads_per_job", static_cast<std::uint64_t>(options_.threads_per_job));
  kvu("queue_max", static_cast<std::uint64_t>(options_.max_queue));
  kvu("in_flight", static_cast<std::uint64_t>(in_flight_));
  kv("draining", draining_ ? "1" : "0");
  kv("batch", options_.batch ? "1" : "0");
  kvu("memory_cap", options_.memory_cap);
  kv("cache_dir", cache_ ? cache_->dir() : "-");
  kvu("graph_lookups", g.lookups);
  kvu("graph_hits", g.hits);
  kvu("graph_builds", g.builds);
  kvu("graph_evictions", g.evictions);
  kvu("graph_resident", g.resident_graphs);
  kvu("graph_resident_bytes", g.resident_bytes);
  kvu("graph_resident_bytes_hwm", g.resident_bytes_hwm);
  // Process counters: every Server in this process adds to them.
  const DaemonInstruments& d = DaemonInstruments::get();
  kvu("jobs_completed", d.jobs_completed.value());
  kvu("rows_streamed", d.rows_streamed.value());
  kvu("busy_rejections", d.busy_rejections.value());
  r += "end\n";
  return r;
}

std::string Server::metrics_response() const {
  // The snapshot's text form supplies its own `end` trailer, so the frame
  // is exactly: ok head, version line, instrument lines, end.
  return ok_line("metrics") + obs::metrics().snapshot().to_text();
}

void Server::admit_job(Connection& conn, const char* kind,
                       std::vector<runner::ExperimentSpec> specs) {
  if (draining_) {
    conn.out += err_line(ErrCode::Draining, "daemon is draining");
    return;
  }
  if (in_flight_ >= options_.jobs + options_.max_queue) {
    DaemonInstruments::get().busy_rejections.add(1);
    conn.out += err_line(ErrCode::Busy, "admission queue full");
    return;
  }
  Job job;
  job.id = next_job_id_++;
  job.conn_gen = conn.gen;
  job.kind = kind;
  job.specs = std::move(specs);
  conn.out += ok_line(std::string(kind) + " id=" + std::to_string(job.id) +
                      " specs=" + std::to_string(job.specs.size()));
  ++in_flight_;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void Server::handle_request(Connection& conn, const Request& request) {
  switch (request.verb) {
    case Verb::Ping:
      conn.out += ok_line("pong");
      return;
    case Verb::Status:
      conn.out += status_response();
      return;
    case Verb::Metrics:
      conn.out += metrics_response();
      return;
    case Verb::Subscribe:
      conn.subscribed = true;
      conn.out += ok_line("subscribed");
      return;
    case Verb::Evict: {
      const std::uint64_t cap = request.has_bytes ? request.bytes : 0;
      const std::uint64_t count = graphs_.evict_until(cap);
      conn.out += ok_line(
          "evicted count=" + std::to_string(count) + " resident_bytes=" +
          std::to_string(graphs_.stats().resident_bytes));
      return;
    }
    case Verb::Run:
      admit_job(conn, "run", request.specs);
      return;
    case Verb::Search:
      admit_job(conn, "search", request.specs);
      return;
    case Verb::Sweep:
      admit_job(conn, "sweep", request.specs);
      return;
    case Verb::Drain:
      draining_ = true;
      conn.drain_waiter = true;
      if (in_flight_ == 0) finish_drain();
      return;
    case Verb::Shutdown: {
      // Discard queued-but-unstarted jobs (their owners are told), keep
      // active ones (pipelines are not cancellable mid-scenario), then
      // drain the remainder.
      std::deque<Job> discarded;
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        discarded.swap(queue_);
      }
      for (const Job& job : discarded) {
        --in_flight_;
        for (auto& [fd, other] : connections_) {
          if (other->gen == job.conn_gen) {
            other->out += err_line(ErrCode::Draining,
                                   "job " + std::to_string(job.id) +
                                       " discarded by shutdown");
          }
        }
      }
      conn.out += ok_line("shutting-down");
      draining_ = true;
      if (in_flight_ == 0) finish_drain();
      return;
    }
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient failure: poll again
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = next_gen_++;
    connections_[fd] = std::move(conn);
  }
}

void Server::read_ready(Connection& conn) {
  char buf[65536];
  bool eof = false;
  while (true) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(got)));
      continue;
    }
    if (got == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;
    break;
  }
  while (auto event = conn.parser.next()) {
    if (event->error) {
      conn.out += err_line(event->error->code, event->error->message);
    } else if (event->request) {
      handle_request(conn, *event->request);
    }
  }
  if (eof) close_connection(conn);
}

void Server::write_ready(Connection& conn) {
  while (!conn.out.empty()) {
    const ssize_t sent =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out.erase(0, static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (sent < 0 && errno == EINTR) continue;
    close_connection(conn);
    return;
  }
}

void Server::close_connection(Connection& conn) {
  const int fd = conn.fd;
  ::close(fd);
  connections_.erase(fd);  // destroys conn — no member access past here
}

int Server::run() {
  workers_.reserve(static_cast<std::size_t>(options_.jobs));
  for (int i = 0; i < options_.jobs; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }

  std::vector<pollfd> fds;
  int flush_spins = 0;
  while (true) {
    drain_outbox();

    if (stopping_) {
      bool pending = false;
      for (auto& [fd, conn] : connections_) {
        if (!conn->out.empty()) pending = true;
      }
      // Everything flushed (or the grace period is over): done.
      if (!pending || ++flush_spins > 100) break;
    }

    fds.clear();
    fds.push_back({listen_fd_, stopping_ ? short{0} : short{POLLIN}, 0});
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({signal_rd_, POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      short events = stopping_ ? short{0} : short{POLLIN};
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), stopping_ ? 50 : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[0].revents & POLLIN) accept_ready();
    if (fds[1].revents & POLLIN) {
      char sink[256];
      while (::read(wake_rd_, sink, sizeof(sink)) > 0) {
      }
    }
    if (fds[2].revents & POLLIN) {
      char sink[256];
      while (::read(signal_rd_, sink, sizeof(sink)) > 0) {
      }
      draining_ = true;
      if (in_flight_ == 0) finish_drain();
    }

    drain_outbox();  // route worker output before socket I/O

    for (std::size_t i = 3; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this round
      Connection& conn = *it->second;
      if (revents & (POLLHUP | POLLERR)) {
        // Flush what we can (the peer may have shutdown(SHUT_WR) only),
        // then read whatever is still buffered; read_ready closes on EOF.
        if (revents & POLLOUT) write_ready(conn);
        if (connections_.count(fd) == 0) continue;
        read_ready(conn);
        continue;
      }
      if (revents & POLLOUT) write_ready(conn);
      if (connections_.count(fd) == 0) continue;
      if (revents & POLLIN) read_ready(conn);
    }
  }

  // Epilogue: stop the workers (they finish their current job first).
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  for (auto& [fd, conn] : connections_) ::close(conn->fd);
  connections_.clear();
  close_if_open(listen_fd_);
  ::unlink(options_.socket_path.c_str());
  return 0;
}

}  // namespace asyncrv::service
