// daemon-mixed: a closed loop of two service::Client connections against
// an in-process service::Server (batch on, every option at its default
// except the packed store) over a fresh cache directory. Each connection
// repeats a seeded mix —
// ~70% SWEEP of 32 cells (24 warm hits + 8 fresh replicas), ~20% RUN of one
// fresh heterogeneous cell, ~10% STATUS/PING — and times every request
// from send to its last line.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "runner/sink.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/prng.h"

namespace perfbench {

using namespace asyncrv::runner;
using asyncrv::service::Client;

namespace {

constexpr int kConnections = 2;
constexpr std::size_t kWarmPerSweep = 24, kFreshPerSweep = 8;
constexpr std::uint64_t kSampleEvery = 64;
constexpr int kFirstSegment = 16, kSegments = 10;
/// The measured loop makes kRequestsPerS requests per second of --seconds
/// (0.6-1.1 s of it per second on a 4-vCPU Xeon VM), a count rather than
/// a time: each fresh cell the daemon stores stays in its index, so its
/// memory follows the number of requests, which must not depend on how
/// fast the host ran.
constexpr double kRequestsPerS = 200;

enum class Verb { Ping, Status, Run, Sweep };

const char* verb_tag(Verb v) {
  switch (v) {
    case Verb::Ping: return "service.ping";
    case Verb::Status: return "service.status";
    case Verb::Run: return "service.run";
    case Verb::Sweep: return "service.sweep";
  }
  return "";
}

struct Request {
  Verb verb = Verb::Ping;
  double latency_ms = 0;
  double first_row_ms = -1;  ///< RUN/SWEEP only
  double admit_ms = -1;      ///< RUN/SWEEP only
  bool ok = false;
  bool busy = false;
  std::uint64_t rows = 0;
};

/// A request whose rows are compared against a local rendering.
struct Sampled {
  std::uint64_t k = 0;
  std::vector<ExperimentSpec> specs;
  std::string rows;  ///< streamed payloads, each + '\n'
};

struct LoopResult {
  double wall_s = 0;
  std::vector<Window> windows;  ///< one per closed_loop call
  std::vector<Request> requests;
  std::vector<Sampled> sampled;
  /// Request ids of completed RUN/SWEEPs: their fresh cells, regenerated
  /// on demand (fresh_cells), are the cells the daemon had to execute.
  std::vector<std::pair<Verb, std::uint64_t>> fresh;
};

/// The fresh cells of request `n` (generated, never stored: the loop's
/// memory must not grow with its throughput).
std::vector<ExperimentSpec> fresh_cells(std::uint64_t seed, Verb verb,
                                        std::uint64_t n) {
  if (verb == Verb::Run) return {daemon_single(seed, n)};
  std::vector<ExperimentSpec> cells;
  for (std::size_t j = 0; j < kFreshPerSweep; ++j) {
    cells.push_back(daemon_replica(seed, (n + 1) * 64 + j));
  }
  return cells;
}

class Daemon {
 public:
  Daemon(std::uint64_t seed, const Size& size) : dir_("daemon") {
    asyncrv::service::ServerOptions opts;
    opts.socket_path = dir_.path() + "/d.sock";
    opts.cache_dir = dir_.path() + "/cache";
    // The packed store (group commit), not the loose default: with two
    // fsyncs per fresh cell the loop's throughput follows this disk's
    // fsync rate, which swings 3-4x within seconds, and no run-to-run
    // figure is steady.
    opts.cache.packed = true;
    server_.emplace(opts);
    server_->bind();
    loop_ = std::thread([this] { server_->run(); });
    try {
      for (Client& c : clients_) {
        if (!c.connect(opts.socket_path, 5000)) {
          throw std::runtime_error("cannot connect to the daemon");
        }
      }
      for (std::uint64_t n = 0; n < size.warm_cells; ++n) {
        warm_.push_back(daemon_replica(seed, n));
      }
      for (std::size_t at = 0; at < warm_.size(); at += 32) {
        const auto end = warm_.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(at + 32, warm_.size()));
        const std::vector<ExperimentSpec> chunk(
            warm_.begin() + static_cast<std::ptrdiff_t>(at), end);
        const auto stats = clients_[0].sweep(chunk);
        if (!stats || stats->errors != 0) {
          throw std::runtime_error("warm fill failed: " +
                                   clients_[0].last_error());
        }
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }

  /// Drains the daemon (every admitted job completes) and joins its loop.
  void stop() {
    if (!loop_.joinable()) return;
    if (!clients_[0].connected() || !clients_[0].drain()) server_->signal_drain();
    for (Client& c : clients_) c.close();
    loop_.join();
  }

  Client& client(int c) { return clients_[c]; }
  const std::vector<ExperimentSpec>& warm() const { return warm_; }
  std::string cache_dir() const { return dir_.path() + "/cache"; }

 private:
  RunDir dir_;
  std::optional<asyncrv::service::Server> server_;
  std::thread loop_;
  Client clients_[kConnections];
  std::vector<ExperimentSpec> warm_;
};

/// One streamed RUN/SWEEP through Client::request + read_line, so the
/// admission (head line) and first row are timed apart from the whole.
void streamed(Client& client, const std::string& frame, std::uint64_t t0,
              Request& req, std::string* rows) {
  const std::optional<Client::Head> head = client.request(frame);
  req.admit_ms = seconds_since(t0) * 1e3;
  if (!head || !head->ok) {
    req.busy = head && head->err_code == "busy";
    return;
  }
  while (const auto line = client.read_line()) {
    if (line->rfind("row ", 0) == 0) {
      if (req.first_row_ms < 0) req.first_row_ms = seconds_since(t0) * 1e3;
      ++req.rows;
      if (rows) *rows += line->substr(4) + "\n";
      continue;
    }
    if (line->rfind("end ", 0) == 0) {
      const auto at = line->find(" errors=");
      req.ok = at != std::string::npos &&
               std::strtoull(line->c_str() + at + 8, nullptr, 10) == 0;
    }
    return;
  }
}

/// The closed loop: every connection makes `per_conn` requests. `loop`
/// keeps the fresh cells of successive loops disjoint. With `sample`,
/// every kSampleEvery-th request of a connection that is a RUN/SWEEP keeps
/// its streamed rows.
LoopResult closed_loop(Daemon& d, std::uint64_t seed, int loop,
                       std::uint64_t per_conn, bool sample_rows,
                       Recorder& rec) {
  LoopResult out;
  std::vector<LoopResult> per(kConnections);
  std::atomic<std::uint64_t> streamed_rows{0};
  const double cpu0 = cpu_seconds();
  const std::uint64_t start = now_ns();
  {
    const auto root = rec.span("loop", 0, 0, kConnections);
    const std::uint64_t root_id = root.id();
    const auto connection = [&](int c) {
      LoopResult& mine = per[c];
      Client& client = d.client(c);
      asyncrv::Rng rng(iteration_seed(seed, 1000 + 10 * loop + c));
      const std::uint64_t base = static_cast<std::uint64_t>(loop) << 32;
      for (std::uint64_t k = 0; k < per_conn; ++k) {
        const std::uint64_t n = base + k * kConnections + c;  // request id
        const std::uint64_t mix = rng.below(100);
        Request req;
        req.verb = mix < 70   ? Verb::Sweep
                   : mix < 90 ? Verb::Run
                   : rng.below(2) ? Verb::Status
                                  : Verb::Ping;
        std::vector<ExperimentSpec> specs;
        if (req.verb == Verb::Sweep) {
          for (std::size_t j = 0; j < kWarmPerSweep; ++j) {
            specs.push_back(d.warm()[rng.below(d.warm().size())]);
          }
        }
        if (req.verb == Verb::Sweep || req.verb == Verb::Run) {
          for (ExperimentSpec& spec : fresh_cells(seed, req.verb, n)) {
            specs.push_back(std::move(spec));
          }
        }
        const bool sample = sample_rows && !specs.empty() && k % kSampleEvery == 0;
        std::string rows;
        const std::uint64_t t0 = now_ns();
        {
          const auto s = rec.span(verb_tag(req.verb), root_id, n + 1);
          switch (req.verb) {
            case Verb::Ping: req.ok = client.ping(); break;
            case Verb::Status: req.ok = client.status().has_value(); break;
            case Verb::Run:
              streamed(client, asyncrv::service::run_request(specs[0]), t0,
                       req, sample ? &rows : nullptr);
              break;
            case Verb::Sweep:
              streamed(client, asyncrv::service::sweep_request(specs), t0,
                       req, sample ? &rows : nullptr);
              break;
          }
        }
        req.latency_ms = seconds_since(t0) * 1e3;
        streamed_rows += req.rows;
        if (req.ok && !specs.empty()) mine.fresh.emplace_back(req.verb, n);
        if (sample) {
          mine.sampled.push_back({k, std::move(specs), std::move(rows)});
        }
        mine.requests.push_back(req);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(connection, c);
    for (std::thread& t : threads) t.join();
  }
  out.wall_s = seconds_since(start);
  out.windows.push_back({static_cast<double>(streamed_rows.load()), out.wall_s,
                         cpu_seconds() - cpu0});
  for (LoopResult& p : per) {
    out.requests.insert(out.requests.end(), p.requests.begin(), p.requests.end());
    out.sampled.insert(out.sampled.end(), p.sampled.begin(), p.sampled.end());
    out.fresh.insert(out.fresh.end(), p.fresh.begin(), p.fresh.end());
  }
  return out;
}

/// The measured loop: kSegments closed_loop segments, with the reference
/// kernel timed after each. Segment k is loop kFirstSegment + k.
LoopResult measured_loop(Daemon& d, std::uint64_t seed, std::uint64_t requests) {
  Recorder off(false);
  LoopResult out;
  const std::uint64_t per_conn =
      (requests + kConnections * kSegments - 1) / (kConnections * kSegments);
  for (int k = 0; k < kSegments; ++k) {
    LoopResult seg = closed_loop(d, seed, kFirstSegment + k, per_conn, true, off);
    seg.windows.back().ref_s = reference_cpu_s();
    out.wall_s += seg.wall_s;
    out.windows.insert(out.windows.end(), seg.windows.begin(), seg.windows.end());
    out.requests.insert(out.requests.end(), seg.requests.begin(),
                        seg.requests.end());
    out.sampled.insert(out.sampled.end(), seg.sampled.begin(), seg.sampled.end());
    out.fresh.insert(out.fresh.end(), seg.fresh.begin(), seg.fresh.end());
  }
  return out;
}

double verb_p50(const LoopResult& l, Verb v) {
  std::vector<double> xs;
  for (const Request& r : l.requests) {
    if (r.verb == v && r.ok) xs.push_back(r.latency_ms);
  }
  return median(xs);
}

std::uint64_t counter(const asyncrv::obs::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

asyncrv::obs::HistogramValue histogram(const asyncrv::obs::Snapshot& s,
                                       const char* name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? asyncrv::obs::HistogramValue{} : it->second;
}

/// The daemon-side stage times of a traced loop, as spans under its
/// RUN/SWEEP client spans. The daemon's own stage histograms (METRICS
/// deltas over the loop) are totals, so each stage's time is apportioned
/// over the client spans in proportion to their durations: every job runs
/// inside its request's span, so the stages never cover more than the
/// spans do. Pool-thread stages (batch, cell, store) are scaled down to
/// the execute stage's wall time when a job's pool ran them in parallel.
void record_daemon_stages(Recorder& rec, const asyncrv::obs::Snapshot& before,
                          const asyncrv::obs::Snapshot& after) {
  const auto ns = [&](const char* name) {
    return static_cast<double>(histogram(after, name).sum -
                               histogram(before, name).sum);
  };
  const double execute = ns("pipeline.stage.execute_ns");
  const double batch = ns("pipeline.batch_ns"), cell = ns("pipeline.cell_ns"),
               store = ns("pipeline.store_ns");
  const double on_pool = batch + cell + store;
  const double scale = on_pool > execute ? execute / on_pool : 1.0;
  const std::pair<const char*, double> stages[] = {
      {"cache.lookup", ns("pipeline.stage.lookup_ns")},
      {"batch.form", ns("pipeline.stage.form_batches_ns")},
      {"batch.run", batch * scale},
      {"sim.scalar", cell * scale},
      {"cache.store", store * scale},
      {"cache.flush", ns("pipeline.stage.flush_ns")}};

  std::vector<Span> jobs;
  double total = 0;
  for (const Span& sp : rec.spans()) {
    if (std::strcmp(sp.name, verb_tag(Verb::Run)) == 0 ||
        std::strcmp(sp.name, verb_tag(Verb::Sweep)) == 0) {
      jobs.push_back(sp);
      total += static_cast<double>(sp.end_ns - sp.start_ns);
    }
  }
  if (total <= 0) return;
  for (const Span& sp : jobs) {
    const double share = static_cast<double>(sp.end_ns - sp.start_ns) / total;
    std::uint64_t at = sp.start_ns;
    for (const auto& [tag, stage_ns] : stages) {
      const auto d = static_cast<std::uint64_t>(stage_ns * share);
      rec.record(tag, sp.id, sp.request, at, at + d);
      at += d;
    }
  }
}

}  // namespace

Result run_daemon(const Options& o) {
  Result r;
  // Set-up: daemon bind/start, connections and the warm fill — too heavy
  // to repeat beside the loop, so sampled before it only.
  std::unique_ptr<Daemon> daemon;
  SetupTimer setup([&] { daemon = std::make_unique<Daemon>(o.seed, o.size); },
                   [&] { daemon.reset(); });
  setup.sample(kMinSetups, kSetupWindowS);

  Recorder off(false), rec(o.trace);
  const std::uint64_t requests = std::max<std::uint64_t>(
      o.size.min_requests,
      static_cast<std::uint64_t>(o.seconds * kRequestsPerS));
  const std::uint64_t quarter = requests / 4 / kConnections + 1;
  // Warm-up: the daemon's throughput ramps over its first seconds of
  // traffic; a resident service's users see the steady state.
  const LoopResult warmup = closed_loop(*daemon, o.seed, 3, quarter, false, off);
  const auto m0 = daemon->client(0).metrics();
  // The measured loop (traced runs measure an untraced reference loop of
  // half the size first, then the traced loop).
  const LoopResult main_loop =
      measured_loop(*daemon, o.seed, o.trace ? requests / 2 : requests);
  const auto m1 = daemon->client(0).metrics();
  r.check(m0.has_value() && m1.has_value(), "METRICS request failed");

  // Correctness, outside the loop: streamed rows equal a local JsonlSink
  // rendering (scalar, cache-less) of the same specs; digest over the
  // sampled requests (the same ones in every run of a seed and size).
  std::string digest_bytes;
  std::uint64_t mismatches = 0;
  for (const Sampled& s : main_loop.sampled) {
    std::ostringstream local;
    JsonlSink sink(local);
    PipelineOptions options;
    options.sinks = {&sink};
    ExperimentPipeline(options).run(s.specs);
    std::string expected = local.str();
    if (o.break_crosscheck && &s == &main_loop.sampled.front()) expected += "x";
    if (s.rows != expected) ++mismatches;
    digest_bytes += s.rows;
  }
  r.digest = digest(digest_bytes);
  r.check(!main_loop.sampled.empty(), "no request was sampled");
  r.check(mismatches == 0, std::to_string(mismatches) + " of " +
                               std::to_string(main_loop.sampled.size()) +
                               " sampled requests streamed rows that differ "
                               "from the local rendering");

  LoopResult traced, tracer_on;
  if (o.trace) {
    const auto t0 = daemon->client(0).metrics();
    traced = closed_loop(*daemon, o.seed, 1, 2 * quarter, false, rec);
    const auto t1 = daemon->client(0).metrics();
    r.check(t0.has_value() && t1.has_value(), "METRICS request failed");
    if (t0 && t1) record_daemon_stages(rec, *t0, *t1);
    asyncrv::obs::Tracer::global().enable();
    tracer_on = closed_loop(*daemon, o.seed, 2, quarter, false, off);
    asyncrv::obs::Tracer::global().disable();
    asyncrv::obs::Tracer::global().clear();
  }

  // The lost-store probe: a fresh cache object on the daemon's directory
  // must serve every cell the daemon executed (regenerated one request at
  // a time, so the probe's memory does not grow with the throughput).
  LostStoreProbe probe(daemon->cache_dir());
  for (const ExperimentSpec& spec : daemon->warm()) probe(spec);
  const LoopResult* loops[] = {&warmup, &main_loop, &traced, &tracer_on};
  for (const LoopResult* l : loops) {
    for (const auto& [verb, n] : l->fresh) {
      for (const ExperimentSpec& spec : fresh_cells(o.seed, verb, n)) {
        probe(spec);
      }
    }
  }
  const std::uint64_t lost = probe.lost(), executed = probe.probed();
  r.check(lost == 0, std::to_string(lost) + " executed cells not served by a "
                                            "fresh cache");
  const std::uint64_t store_bytes = dir_bytes(daemon->cache_dir());
  daemon.reset();

  std::vector<double> latency, first_row;
  std::uint64_t rows = 0, busy = 0;
  for (const Request& q : main_loop.requests) {
    ++r.attempted;
    if (!q.ok) ++r.failed;
    if (q.busy) ++busy;
    rows += q.rows;
    latency.push_back(q.latency_ms);  // a failed request still took its time
    if (q.first_row_ms >= 0) first_row.push_back(q.first_row_ms);
  }
  const double n_req = static_cast<double>(main_loop.requests.size());
  r.detail("req_per_s", n_req / main_loop.wall_s, "1/s", main_loop.requests.size());
  r.detail("req_p50_ms", median(latency), "ms", latency.size());
  r.detail("req_p99_ms", quantile(latency, 0.99), "ms", latency.size());
  r.detail("first_row_p50_ms", median(first_row), "ms", first_row.size());
  r.detail("failed_frac", n_req > 0 ? static_cast<double>(r.failed) / n_req : 0,
           "ratio", main_loop.requests.size());
  r.detail("store_bytes_per_cell",
           executed == 0 ? 0 : static_cast<double>(store_bytes) /
                                   static_cast<double>(executed),
           "bytes", executed);
  r.detail("lost_stores", static_cast<double>(lost), "count");

  if (!o.trace) {
    end_to_end(r, main_loop.windows, setup);
    return r;
  }

  // Per-layer: client spans for the service layer, split by the daemon's
  // stage times (record_daemon_stages); counts and the job time from the
  // daemon's own registry (the METRICS verb), as deltas over the untraced
  // loop.
  const auto per_request = [](const LoopResult& l) {
    return l.requests.empty() ? 0.0
                              : l.wall_s * kConnections /
                                    static_cast<double>(l.requests.size());
  };
  LayerExtras x;
  x.overhead_frac = per_request(traced) / per_request(main_loop) - 1;
  x.tracer_on_ratio = per_request(tracer_on) / per_request(main_loop);
  x.ping_ms = verb_p50(traced, Verb::Ping);
  x.status_ms = verb_p50(traced, Verb::Status);
  x.run_ms = verb_p50(traced, Verb::Run);
  x.sweep_ms = verb_p50(traced, Verb::Sweep);
  std::vector<double> admit, job_latency;
  for (const Request& q : traced.requests) {
    if (q.admit_ms >= 0) admit.push_back(q.admit_ms);
  }
  x.admit_ms = median(admit);
  x.busy_rejections = busy;
  LayerCounts c;
  if (m0 && m1) {
    const auto job0 = histogram(*m0, "daemon.job_ns");
    const auto job1 = histogram(*m1, "daemon.job_ns");
    const std::uint64_t jobs = job1.count - job0.count;
    const double job_s =
        jobs > 0 ? static_cast<double>(job1.sum - job0.sum) * 1e-9 /
                       static_cast<double>(jobs)
                 : 0;
    x.job_s = job_s;
    for (const Request& q : main_loop.requests) {
      if (q.ok && q.verb >= Verb::Run) job_latency.push_back(q.latency_ms);
    }
    double mean_latency = 0;
    for (const double v : job_latency) mean_latency += v;
    if (!job_latency.empty()) mean_latency /= static_cast<double>(job_latency.size());
    x.queue_wait_ms = std::max(0.0, mean_latency - job_s * 1e3);
    const auto delta = [&](const char* name) {
      return counter(*m1, name) - counter(*m0, name);
    };
    c.graph_builds = delta("graphcache.builds");
    c.lookups = delta("sweepcache.lookups");
    c.hits = delta("sweepcache.hits");
    c.fsyncs = delta("sweepcache.fsyncs");
    c.cells = delta("pipeline.cells");
    c.batch_traversals = delta("batch.traversals");
    c.scalar_traversals = delta("engine.traversals");
    const auto b0 = histogram(*m0, "pipeline.batch_ns");
    const auto b1 = histogram(*m1, "pipeline.batch_ns");
    c.batches = b1.count - b0.count;
    c.batch_cells = delta("pipeline.executed");
    c.fallback_lanes = c.batch_cells - delta("pipeline.batched_lanes");
    x.batch_ns_per_traversal =
        c.batch_traversals > 0 ? static_cast<double>(b1.sum - b0.sum) /
                                     static_cast<double>(c.batch_traversals)
                               : 0;
  }
  c.lost_stores = lost;
  layer_metrics(attribute(rec.spans()), c, x, r);
  write_spans(o.out_dir + "/trace-" + o.workload + ".jsonl", rec.spans(),
              o.meta_json);
  return r;
}

}  // namespace perfbench
