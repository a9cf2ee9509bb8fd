// The observability layer (obs/metrics.h, obs/trace.h): lock-free counter
// exactness under contention, histogram bucket boundaries, snapshot
// consistency while writers race, the asyncrv.metrics.v1 text round-trip,
// Chrome trace JSON shape and span nesting — and the hard gate: sink bytes
// and cache segment bytes are identical with observability on or off.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "runner/cache.h"
#include "runner/pipeline.h"
#include "runner/sink.h"
#include "runner/spec.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("test.concurrent");
  obs::Histogram& hist = reg.histogram("test.concurrent_hist");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter, &hist] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add(1);
        hist.observe(i & 0xff);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  // Each thread observes i & 0xff: full 0..255 cycles plus a partial tail.
  const std::uint64_t tail = kPerThread % 256;
  const std::uint64_t per_thread =
      (kPerThread / 256) * (256ull * 255 / 2) + tail * (tail - 1) / 2;
  EXPECT_EQ(hist.sum(), kThreads * per_thread);
}

TEST(Metrics, HistogramBucketBoundaries) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.buckets");

  // Bucket 0 is exactly the value 0; bucket i (1 <= i <= 62) covers
  // [2^(i-1), 2^i); the last bucket absorbs everything >= 2^62.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4);
  EXPECT_EQ(obs::Histogram::bucket_of((1ull << 61) - 1), 61);
  EXPECT_EQ(obs::Histogram::bucket_of(1ull << 61), 62);
  EXPECT_EQ(obs::Histogram::bucket_of(1ull << 62), 63);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ull), 63);

  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1023ull, 1024ull}) {
    h.observe(v);
  }
  EXPECT_EQ(h.bucket(0), 1u);   // 0
  EXPECT_EQ(h.bucket(1), 1u);   // 1
  EXPECT_EQ(h.bucket(2), 2u);   // 2, 3
  EXPECT_EQ(h.bucket(10), 1u);  // 1023 in [512, 1024)
  EXPECT_EQ(h.bucket(11), 1u);  // 1024 in [1024, 2048)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1023 + 1024);
}

TEST(Metrics, SnapshotWhileWritingNeverTears) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("test.a");
  obs::Counter& b = reg.counter("test.b");

  // The writer bumps a, then b. snapshot() reads each instrument without
  // tearing but promises no ordering ACROSS instruments, so the checks are
  // per counter: every value round-trips through the text form and never
  // runs backwards across successive snapshots — a torn read would produce
  // a wild value — and a == b once the writer has joined.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      a.add(1);
      b.add(1);
    }
  });
  std::uint64_t last_a = 0;
  std::uint64_t last_b = 0;
  for (int i = 0; i < 2'000; ++i) {
    const obs::Snapshot snap = reg.snapshot();
    const auto ia = snap.counters.find("test.a");
    const auto ib = snap.counters.find("test.b");
    ASSERT_NE(ia, snap.counters.end());
    ASSERT_NE(ib, snap.counters.end());
    EXPECT_GE(ia->second, last_a);
    EXPECT_GE(ib->second, last_b);
    last_a = ia->second;
    last_b = ib->second;
    const auto round = obs::Snapshot::from_text(snap.to_text());
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(round->counters.at("test.a"), ia->second);
    EXPECT_EQ(round->counters.at("test.b"), ib->second);
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(a.value(), b.value());
  const obs::Snapshot joined = reg.snapshot();
  EXPECT_EQ(joined.counters.at("test.a"), joined.counters.at("test.b"));
}

TEST(Metrics, TextFormRoundTripsAndMergesAsFleetTotals) {
  obs::MetricsRegistry reg;
  reg.counter("pipeline.cells").add(100);
  reg.gauge("cache.resident").set(42);
  obs::Histogram& h = reg.histogram("stage.ns");
  h.observe(0);
  h.observe(5);
  h.observe(1 << 20);

  const obs::Snapshot snap = reg.snapshot();
  const std::string text = snap.to_text();
  EXPECT_EQ(text.rfind(obs::kMetricsVersion, 0), 0u) << text;
  const auto round = obs::Snapshot::from_text(text);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->to_text(), text);
  EXPECT_EQ(round->counters.at("pipeline.cells"), 100u);
  EXPECT_EQ(round->gauges.at("cache.resident"), 42u);
  EXPECT_EQ(round->histograms.at("stage.ns").count, 3u);

  // Strictness: truncation, version skew, and junk all fail closed.
  EXPECT_FALSE(obs::Snapshot::from_text(text.substr(0, text.size() - 4)));
  EXPECT_FALSE(obs::Snapshot::from_text("asyncrv.metrics.v2\nend\n"));
  EXPECT_FALSE(obs::Snapshot::from_text(text + "trailing\n"));

  // Merge: counters and histogram cells add, gauges high-water.
  obs::Snapshot fleet = snap;
  obs::Snapshot other = snap;
  other.gauges["cache.resident"] = 7;
  fleet.merge(other);
  EXPECT_EQ(fleet.counters.at("pipeline.cells"), 200u);
  EXPECT_EQ(fleet.gauges.at("cache.resident"), 42u);
  EXPECT_EQ(fleet.histograms.at("stage.ns").count, 6u);

  // The JSON form carries the schema tag (the CI job json.tool's it).
  EXPECT_NE(snap.to_json().find("\"schema\":\"asyncrv.metrics.v1\""),
            std::string::npos);
}

TEST(Trace, ChromeJsonIsWellFormedAndSpansNestProperly) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1024);
  {
    const obs::ObsSpan outer("outer", "test");
    {
      const obs::ObsSpan inner("inner", "test");
    }
    {
      const obs::ObsSpan inner2("inner2", "test");
    }
  }
  tracer.disable();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // events() sorts by (start asc, dur desc): the enclosing span first.
  EXPECT_STREQ(events[0].name, "outer");
  const auto& outer = events[0];
  for (std::size_t i = 1; i < events.size(); ++i) {
    // Proper nesting: children start and end within the parent.
    EXPECT_GE(events[i].start_ns, outer.start_ns) << events[i].name;
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              outer.start_ns + outer.dur_ns)
        << events[i].name;
  }
  // inner fully precedes inner2 (sequential scopes never overlap).
  EXPECT_LE(events[1].start_ns + events[1].dur_ns, events[2].start_ns);

  const std::string json = tracer.chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Balanced braces/brackets — the cheap structural well-formedness check
  // (CI runs the real validator, python3 -m json.tool, on a live trace).
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  tracer.clear();
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(64);
  tracer.disable();
  {
    const obs::ObsSpan span("never", "test");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Obs, SinkAndCacheBytesAreIdenticalWithObservabilityOnAndOff) {
  // The PR's hard constraint: metrics and tracing observe the run, they
  // never touch outcome encoding, sink bytes, or cache contents.
  const auto specs = runner::rendezvous_grid(
      {"ring:4", "path:3"}, {"fair", "random50"}, {{5, 12}},
      /*budget=*/400'000, /*seed=*/0xbeef);

  struct Artifacts {
    std::string jsonl;
    std::map<std::string, std::string> cache_files;
  };
  const auto run_once = [&](const std::string& tag, bool obs_on) {
    if (obs_on) {
      obs::Tracer::global().enable(4096);
    }
    const std::string cache_dir = fresh_dir("obs_ident_cache_" + tag);
    const std::string jsonl_path =
        fresh_dir("obs_ident_out_" + tag) + ".jsonl";
    {
      runner::SweepCache cache(cache_dir);
      runner::JsonlSink jsonl(jsonl_path);
      runner::PipelineOptions opts;
      opts.threads = 2;
      opts.batch = true;
      opts.cache = &cache;
      opts.sinks = {&jsonl};
      runner::ExperimentPipeline(opts).run(specs);
    }
    if (obs_on) {
      obs::Tracer::global().disable();
      obs::Tracer::global().clear();
    }
    Artifacts a;
    a.jsonl = slurp(jsonl_path);
    for (const auto& entry : fs::directory_iterator(cache_dir)) {
      a.cache_files[entry.path().filename().string()] =
          slurp(entry.path().string());
    }
    return a;
  };

  const Artifacts off = run_once("off", false);
  const Artifacts on = run_once("on", true);
  ASSERT_FALSE(off.jsonl.empty());
  EXPECT_EQ(off.jsonl, on.jsonl);
  ASSERT_FALSE(off.cache_files.empty());
  ASSERT_EQ(off.cache_files.size(), on.cache_files.size());
  for (const auto& [name, bytes] : off.cache_files) {
    const auto it = on.cache_files.find(name);
    ASSERT_NE(it, on.cache_files.end()) << name;
    EXPECT_EQ(bytes, it->second) << name;
  }
}

}  // namespace
}  // namespace asyncrv
