#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "service/protocol.h"
#include "util/text.h"

namespace asyncrv::service {

namespace {

/// First token / remainder split of a response line.
std::pair<std::string, std::string> take_token(const std::string& s) {
  const std::size_t sp = s.find(' ');
  if (sp == std::string::npos) return {s, ""};
  return {s.substr(0, sp), s.substr(sp + 1)};
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rbuf_(std::move(other.rbuf_)),
      last_error_(std::move(other.last_error_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rbuf_ = std::move(other.rbuf_);
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

bool Client::connect(const std::string& socket_path, int retry_ms) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    last_error_ = "socket path too long: " + socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      last_error_ = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      return true;
    }
    last_error_ = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool Client::send_raw(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent = ::send(fd_, bytes.data() + off, bytes.size() - off,
                                MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      last_error_ = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

std::optional<std::string> Client::read_line() {
  while (true) {
    const std::size_t nl = rbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rbuf_.substr(0, nl);
      rbuf_.erase(0, nl + 1);
      return line;
    }
    char buf[65536];
    const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    if (got > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    last_error_ = got == 0 ? "connection closed"
                           : std::string("recv: ") + std::strerror(errno);
    return std::nullopt;
  }
}

std::optional<Client::Head> Client::request(const std::string& frame) {
  if (!send_raw(frame)) return std::nullopt;
  const auto line = read_line();
  if (!line) return std::nullopt;
  last_error_ = *line;
  auto [tag, rest] = take_token(*line);
  Head head;
  if (tag == "ok") {
    head.ok = true;
    head.info = rest;
    return head;
  }
  if (tag == "err") {
    auto [code, message] = take_token(rest);
    head.err_code = code;
    head.message = message;
    return head;
  }
  last_error_ = "unexpected response line: " + *line;
  return std::nullopt;
}

bool Client::ping() {
  const auto head = request(ping_request());
  return head && head->ok && head->info == "pong";
}

std::optional<std::map<std::string, std::string>> Client::status() {
  const auto head = request(status_request());
  if (!head || !head->ok) return std::nullopt;
  std::map<std::string, std::string> kv;
  while (true) {
    const auto line = read_line();
    if (!line) return std::nullopt;
    if (*line == "end") return kv;
    const std::size_t eq = line->find('=');
    if (eq != std::string::npos) {
      kv[line->substr(0, eq)] = line->substr(eq + 1);
    }
  }
}

std::optional<obs::Snapshot> Client::metrics() {
  const auto head = request(metrics_request());
  if (!head || !head->ok) return std::nullopt;
  // Reassemble the wire lines into the exact to_text() document (its own
  // `end` line is the terminator) and let the strict parser validate it.
  std::string text;
  while (true) {
    const auto line = read_line();
    if (!line) return std::nullopt;
    text += *line;
    text += '\n';
    if (*line == "end") break;
  }
  auto snap = obs::Snapshot::from_text(text);
  if (!snap) {
    last_error_ = "malformed metrics snapshot";
    return std::nullopt;
  }
  return snap;
}

std::optional<Client::JobStats> Client::streamed_job(
    const std::string& frame,
    const std::function<void(const std::string&)>& on_row) {
  const auto head = request(frame);
  if (!head || !head->ok) return std::nullopt;
  while (true) {
    const auto line = read_line();
    if (!line) return std::nullopt;
    auto [tag, rest] = take_token(*line);
    if (tag == "row") {
      if (on_row) on_row(rest);
      continue;
    }
    if (tag == "event") continue;  // a subscribed connection's side channel
    if (tag == "end") {
      JobStats stats;
      std::string remaining = rest;
      while (!remaining.empty()) {
        auto [tok, rest2] = take_token(remaining);
        remaining = rest2;
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = tok.substr(0, eq);
        const auto value = parse_u64(tok.substr(eq + 1));
        if (!value) continue;
        if (key == "scenarios") stats.scenarios = *value;
        else if (key == "ok") stats.ok = *value;
        else if (key == "unresolved") stats.unresolved = *value;
        else if (key == "errors") stats.errors = *value;
        else if (key == "cache_hits") stats.cache_hits = *value;
        else if (key == "executed") stats.executed = *value;
        else if (key == "batched") stats.batched = *value;
      }
      return stats;
    }
    if (tag == "err") {
      last_error_ = *line;
      return std::nullopt;
    }
    last_error_ = "unexpected stream line: " + *line;
    return std::nullopt;
  }
}

std::optional<Client::JobStats> Client::sweep(
    const std::vector<runner::ExperimentSpec>& specs,
    const std::function<void(const std::string&)>& on_row) {
  return streamed_job(sweep_request(specs), on_row);
}

std::optional<Client::JobStats> Client::run(
    const runner::ExperimentSpec& spec,
    const std::function<void(const std::string&)>& on_row) {
  return streamed_job(run_request(spec), on_row);
}

std::optional<Client::Head> Client::evict(
    std::optional<std::uint64_t> max_bytes) {
  return request(evict_request(max_bytes));
}

bool Client::drain() {
  if (!send_raw(drain_request())) return false;
  // The ok is deferred until every admitted job has completed; anything
  // else arriving on this connection meanwhile (rows, events, discarded-
  // job errors) is passed over.
  while (true) {
    const auto line = read_line();
    if (!line) return false;
    if (*line == "ok drained") return true;
    auto [tag, rest] = take_token(*line);
    if (tag == "row" || tag == "event" || tag == "end" || tag == "err") {
      continue;
    }
    last_error_ = "unexpected line while draining: " + *line;
    return false;
  }
}

bool Client::shutdown() {
  const auto head = request(shutdown_request());
  return head && head->ok;
}

}  // namespace asyncrv::service
