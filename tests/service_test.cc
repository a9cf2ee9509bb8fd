// End-to-end acceptance of the resident experiment service (src/service/,
// DESIGN.md §9): a real asyncrvd Server on a real Unix socket, driven by
// real Clients. The headline contracts:
//
//  * streamed `row` payloads are byte-identical to a single-process
//    ExperimentPipeline run of the same specs — even with 8 concurrent
//    clients submitting overlapping sweeps;
//  * a second identical sweep executes zero simulations (the daemon's
//    SweepCache serves every cell);
//  * admission control rejects loudly (`err busy`) instead of buffering
//    without bound, and the connection survives;
//  * DRAIN mid-sweep completes all admitted work before run() returns 0;
//  * the per-job memory cap LRU-evicts interned graphs.
#include "service/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "runner/sink.h"
#include "service/client.h"
#include "service/protocol.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A live in-process daemon: bind() completes before the loop thread
/// starts, so clients never race the socket's existence. STATUS prints
/// process counters, so each daemon starts from a zeroed registry — as
/// asyncrvd, one daemon per process, does.
struct Daemon {
  service::ServerOptions opts;
  std::optional<service::Server> server;
  std::thread thread;
  int rc = -1;

  explicit Daemon(service::ServerOptions o) : opts(std::move(o)) {
    obs::metrics().reset();
    server.emplace(opts);
    server->bind();
    thread = std::thread([this] { rc = server->run(); });
  }

  /// Waits for the loop to exit (after a drain/shutdown was requested).
  int join() {
    if (thread.joinable()) thread.join();
    return rc;
  }

  ~Daemon() {
    if (thread.joinable()) {
      service::Client c;
      if (c.connect(opts.socket_path)) c.shutdown();
      thread.join();
    }
  }
};

runner::ExperimentSpec rv_spec(const std::string& graph,
                               std::uint64_t seed = 42) {
  runner::RendezvousSpec rv;
  rv.graph = graph;
  rv.adversary = "random50";
  rv.labels = {5, 12};
  rv.budget = 500'000;
  rv.seed = seed;
  return {.name = "", .scenario = std::move(rv)};
}

/// The exact JSONL bytes a local single-process pipeline run of `specs`
/// emits — the golden the daemon's streamed rows must reproduce.
std::string local_jsonl(const std::vector<runner::ExperimentSpec>& specs) {
  std::ostringstream os;
  runner::JsonlSink sink(os);
  runner::PipelineOptions options;
  options.sinks = {&sink};
  options.threads = 2;
  runner::ExperimentPipeline(options).run(specs);
  return os.str();
}

std::string socket_path(const std::string& name) {
  return fresh_dir(name + "_sock") + "/d.sock";
}

TEST(Service, PingStatusAndEvictAnswerInline) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("basic");
  Daemon daemon(opts);

  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  EXPECT_TRUE(client.ping());

  auto status = client.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)["server"], "asyncrvd");
  EXPECT_EQ((*status)["proto"], service::kProtoVersion);
  EXPECT_EQ((*status)["draining"], "0");
  EXPECT_EQ((*status)["in_flight"], "0");
  EXPECT_EQ((*status)["cache_dir"], "-");

  // Intern two topologies through real jobs, then EVICT everything.
  ASSERT_TRUE(client.run(rv_spec("ring:6")).has_value());
  ASSERT_TRUE(client.run(rv_spec("path:7")).has_value());
  const auto evicted = client.evict(std::nullopt);
  ASSERT_TRUE(evicted.has_value() && evicted->ok);
  EXPECT_NE(evicted->info.find("count=2"), std::string::npos)
      << evicted->info;
  EXPECT_NE(evicted->info.find("resident_bytes=0"), std::string::npos);

  status = client.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)["graph_evictions"], "2");
  EXPECT_EQ((*status)["graph_resident"], "0");
  EXPECT_EQ((*status)["jobs_completed"], "2");
}

TEST(Service, MetricsSnapshotCountsTheSweepAndAgreesWithStatus) {
  // METRICS serves the registry STATUS reads: after one SWEEP of N cells
  // the snapshot holds N streamed rows and the completed-job count STATUS
  // prints.
  service::ServerOptions opts;
  opts.socket_path = socket_path("metrics");
  Daemon daemon(opts);

  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  std::vector<runner::ExperimentSpec> specs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    specs.push_back(rv_spec("ring:5", seed));
  }
  const auto stats = client.sweep(specs);
  ASSERT_TRUE(stats.has_value()) << client.last_error();
  ASSERT_EQ(stats->scenarios, specs.size());

  const auto snapshot = client.metrics();
  ASSERT_TRUE(snapshot.has_value()) << client.last_error();
  const auto& counters = snapshot->counters;
  ASSERT_EQ(counters.count("daemon.rows_streamed"), 1u);
  EXPECT_EQ(counters.at("daemon.rows_streamed"), specs.size());
  ASSERT_EQ(counters.count("daemon.jobs_completed"), 1u);
  auto status = client.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)["jobs_completed"], "1");
  EXPECT_EQ(std::to_string(counters.at("daemon.jobs_completed")),
            (*status)["jobs_completed"]);
}

TEST(Service, MalformedFramesLeaveTheConnectionUsable) {
  // The live-server half of the protocol fuzz contract: garbage on a real
  // socket yields `err` lines and the same connection then works.
  service::ServerOptions opts;
  opts.socket_path = socket_path("fuzz");
  Daemon daemon(opts);

  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  ASSERT_TRUE(client.send_raw("complete garbage\n" +
                              std::string(service::kProtoVersion) +
                              " FROBNICATE\n" +
                              std::string(service::kProtoVersion) +
                              " RUN %zz\n"));
  for (const std::string expected_code :
       {"bad-version", "bad-request", "bad-spec"}) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("err " + expected_code, 0), 0u) << *line;
  }
  EXPECT_TRUE(client.ping()) << "connection must survive every rejection";
}

TEST(Service, RunStreamsTheExactJsonlRow) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("row");
  Daemon daemon(opts);

  const runner::ExperimentSpec spec = rv_spec("ring:6");
  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  std::string streamed;
  const auto stats = client.run(spec, [&](const std::string& row) {
    streamed += row;
    streamed += "\n";
  });
  ASSERT_TRUE(stats.has_value()) << client.last_error();
  EXPECT_EQ(stats->scenarios, 1u);
  EXPECT_EQ(stats->executed, 1u);
  EXPECT_EQ(streamed, local_jsonl({spec}));
}

TEST(Service, RunStreamsExactSglAndSearchRows) {
  // The daemon validates every kind through spec_from_canonical: an SGL
  // RUN and a search RUN each stream the row a local run renders.
  service::ServerOptions opts;
  opts.socket_path = socket_path("kinds");
  Daemon daemon(opts);

  runner::SglSpec sgl;
  sgl.graph = "edge";
  sgl.labels = {3, 7};
  runner::SearchSpec search;
  search.graph = "ring:4";
  search.evaluations = 5;
  search.budget = 100'000;
  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  for (const runner::ExperimentSpec& spec :
       {runner::ExperimentSpec{.name = "", .scenario = sgl},
        runner::ExperimentSpec{.name = "", .scenario = search}}) {
    std::string streamed;
    const auto stats = client.run(spec, [&](const std::string& row) {
      streamed += row;
      streamed += "\n";
    });
    ASSERT_TRUE(stats.has_value()) << client.last_error();
    EXPECT_EQ(stats->executed, 1u);
    EXPECT_EQ(stats->errors, 0u);
    EXPECT_EQ(streamed, local_jsonl({spec}));
  }
}

TEST(Service, EightConcurrentClientsStreamByteIdenticalOverlappingSweeps) {
  // THE acceptance scenario: 8 clients submit overlapping 10-spec windows
  // of a 24-cell grid against one daemon (shared sweep cache, shared graph
  // cache, 4 concurrent jobs). Every client's stream must be byte-equal to
  // a local single-process run of its window, and a subsequent full sweep
  // must execute nothing.
  service::ServerOptions opts;
  opts.socket_path = socket_path("accept");
  opts.cache_dir = fresh_dir("accept_cache");
  opts.jobs = 4;
  opts.max_queue = 8;
  opts.threads_per_job = 2;
  Daemon daemon(opts);

  const std::vector<runner::ExperimentSpec> specs = runner::rendezvous_grid(
      {"ring:5", "path:4", "grid:2x3", "star:4"},
      {"fair", "random50", "stall-a"}, {{5, 12}, {9, 14}}, 400'000, 33);
  ASSERT_EQ(specs.size(), 24u);

  constexpr int kClients = 8;
  std::vector<std::string> streamed(kClients);
  // One byte per client: std::vector<bool> packs the flags into shared
  // words, so concurrent writes to different clients' flags would race.
  std::vector<char> succeeded(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<runner::ExperimentSpec> window(
          specs.begin() + 2 * c, specs.begin() + 2 * c + 10);
      service::Client client;
      if (!client.connect(opts.socket_path)) return;
      const auto stats = client.sweep(window, [&](const std::string& row) {
        streamed[c] += row;
        streamed[c] += "\n";
      });
      succeeded[c] = stats.has_value() && stats->scenarios == 10 &&
                     stats->errors == 0;
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(succeeded[c]) << "client " << c;
    const std::vector<runner::ExperimentSpec> window(
        specs.begin() + 2 * c, specs.begin() + 2 * c + 10);
    EXPECT_EQ(streamed[c], local_jsonl(window))
        << "client " << c
        << ": daemon stream must be byte-identical to a local run";
  }

  // Every cell is cached now: the full grid is served without a single
  // simulation, and its bytes still match a local run of the full grid.
  service::Client full;
  ASSERT_TRUE(full.connect(opts.socket_path));
  std::string full_stream;
  const auto stats = full.sweep(specs, [&](const std::string& row) {
    full_stream += row;
    full_stream += "\n";
  });
  ASSERT_TRUE(stats.has_value()) << full.last_error();
  EXPECT_EQ(stats->scenarios, 24u);
  EXPECT_EQ(stats->cache_hits, 24u);
  EXPECT_EQ(stats->executed, 0u) << "a warm daemon must simulate nothing";
  EXPECT_EQ(full_stream, local_jsonl(specs));

  // Graceful exit: drain, then the loop thread returns 0.
  EXPECT_TRUE(full.drain());
  EXPECT_EQ(daemon.join(), 0);
  EXPECT_FALSE(fs::exists(opts.socket_path)) << "socket must be unlinked";
}

TEST(Service, AdmissionControlRejectsBeyondTheInFlightCap) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("busy");
  opts.jobs = 1;
  opts.max_queue = 1;  // in-flight cap: 1 active + 1 queued
  Daemon daemon(opts);

  // Three pipelined RUNs in ONE write: the main loop admits, admits,
  // rejects — deterministically, because in-flight accounting only drops
  // in the poll loop, never mid-read.
  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  ASSERT_TRUE(client.send_raw(service::run_request(rv_spec("ring:5", 1)) +
                              service::run_request(rv_spec("ring:5", 2)) +
                              service::run_request(rv_spec("ring:5", 3))));

  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("ok run id=", 0), 0u) << *line;
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("ok run id=", 0), 0u) << *line;
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("err busy", 0), 0u) << *line;

  // Both admitted jobs complete and stream on the surviving connection
  // (jobs=1 serializes them: row, end, row, end).
  for (int job = 0; job < 2; ++job) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("row ", 0), 0u) << *line;
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("end scenarios=1", 0), 0u) << *line;
  }

  auto status = client.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)["busy_rejections"], "1");
}

TEST(Service, DrainMidSweepCompletesAdmittedWorkThenExitsZero) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("drain");
  opts.jobs = 1;
  Daemon daemon(opts);

  // One write carries: a 6-spec sweep, DRAIN, and a late RUN. The sweep
  // is admitted work — every row must still arrive; the RUN is not — it
  // is rejected immediately; the deferred `ok drained` lands only after
  // the sweep's end line.
  std::vector<runner::ExperimentSpec> sweep;
  for (std::uint64_t s = 1; s <= 6; ++s) sweep.push_back(rv_spec("ring:5", s));

  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  ASSERT_TRUE(client.send_raw(service::sweep_request(sweep) +
                              service::drain_request() +
                              service::run_request(rv_spec("ring:6"))));

  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("ok sweep id=", 0), 0u) << *line;
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("err draining", 0), 0u)
      << *line << " (post-drain submissions are rejected immediately)";

  int rows = 0;
  while (true) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "connection died before drain finished";
    if (line->rfind("row ", 0) == 0) {
      ++rows;
      continue;
    }
    ASSERT_EQ(line->rfind("end scenarios=6", 0), 0u) << *line;
    break;
  }
  EXPECT_EQ(rows, 6) << "every admitted row must be streamed before drain";
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "ok drained");
  EXPECT_EQ(daemon.join(), 0);
}

TEST(Service, SubscribersSeeProgressEventsAndTheDrainSentinel) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("events");
  Daemon daemon(opts);

  service::Client watcher;
  ASSERT_TRUE(watcher.connect(opts.socket_path));
  const auto sub = watcher.request(service::subscribe_request());
  ASSERT_TRUE(sub.has_value() && sub->ok);
  EXPECT_EQ(sub->info, "subscribed");

  service::Client submitter;
  ASSERT_TRUE(submitter.connect(opts.socket_path));
  const auto stats =
      submitter.sweep({rv_spec("ring:5", 1), rv_spec("ring:5", 2),
                       rv_spec("ring:5", 3)});
  ASSERT_TRUE(stats.has_value());

  // Three per-outcome events (any completion order), then the done event.
  int outcome_events = 0;
  while (true) {
    const auto line = watcher.read_line();
    ASSERT_TRUE(line.has_value());
    ASSERT_EQ(line->rfind("event job=", 0), 0u) << *line;
    if (line->find(" done") != std::string::npos) break;
    EXPECT_NE(line->find(" status="), std::string::npos) << *line;
    EXPECT_NE(line->find(" fingerprint="), std::string::npos) << *line;
    ++outcome_events;
  }
  EXPECT_EQ(outcome_events, 3);

  ASSERT_TRUE(submitter.drain());
  const auto sentinel = watcher.read_line();
  ASSERT_TRUE(sentinel.has_value());
  EXPECT_EQ(*sentinel, "end drained");
  EXPECT_EQ(daemon.join(), 0);
}

TEST(Service, MemoryCapEvictsInternedGraphsAfterEveryJob) {
  service::ServerOptions opts;
  opts.socket_path = socket_path("memcap");
  opts.memory_cap = 1;  // nothing fits: every job's graphs are evicted
  Daemon daemon(opts);

  service::Client client;
  ASSERT_TRUE(client.connect(opts.socket_path));
  ASSERT_TRUE(client.run(rv_spec("ring:6")).has_value());
  ASSERT_TRUE(client.run(rv_spec("grid:3x4")).has_value());

  auto status = client.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ((*status)["graph_builds"], "2");
  EXPECT_EQ((*status)["graph_evictions"], "2")
      << "the cap must evict after each job";
  EXPECT_EQ((*status)["graph_resident_bytes"], "0");
  EXPECT_NE((*status)["graph_resident_bytes_hwm"], "0")
      << "the high-water mark must remember the peak";
}

}  // namespace
}  // namespace asyncrv
