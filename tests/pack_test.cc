// The packed sweep-cache store (asyncrv.cachepack.v1, DESIGN.md §10):
// append/close/reopen round-trips, the one frame scan that loads every
// segment (a cut at any offset serves exactly the whole records before it;
// segments larger than one read window; the `idx`/`footer` trailer of older
// releases ends the scan), torn-tail healing, stray pre-pack `*.outcome`
// files, offline compaction, multi-process append discipline, and store
// failures.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runner/cache.h"
#include "runner/pipeline.h"
#include "runner/registry.h"
#include "runner/sink.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

/// Every segment's first line.
const std::string kHeader = "asyncrv.cachepack.v1\n";

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The encoded entry of a live run of `spec`.
std::string entry_bytes(const runner::ExperimentSpec& spec) {
  return runner::encode_outcome(spec, runner::run_experiment(spec),
                                runner::SweepCache::kFormatVersion);
}

/// The `*.cachepack` files currently in `dir`, sorted.
std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".cachepack") out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The end offset of every whole record in `segment_bytes`, in file order:
/// a plain walk over the `rec <fp> <len>` frames that stops at the first
/// line that is not one or at a short payload.
std::vector<std::size_t> record_ends(const std::string& segment_bytes) {
  std::vector<std::size_t> ends;
  std::size_t pos = kHeader.size();
  while (pos < segment_bytes.size() &&
         segment_bytes.compare(pos, 4, "rec ") == 0) {
    const std::size_t nl = segment_bytes.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::size_t end =
        nl + 1 + std::stoull(segment_bytes.substr(pos + 4 + 33, nl - pos - 37));
    if (end > segment_bytes.size()) break;
    ends.push_back(end);
    pos = end;
  }
  return ends;
}

/// The `idx`/`footer` trailer that older releases appended to a segment on
/// close: one `<fp> <payload offset> <len>` line per record, then the
/// offset of the `idx` line.
std::string legacy_trailer(const std::string& segment_bytes) {
  std::ostringstream idx;
  std::size_t count = 0;
  std::size_t pos = kHeader.size();
  for (const std::size_t end : record_ends(segment_bytes)) {
    const std::size_t nl = segment_bytes.find('\n', pos);
    idx << segment_bytes.substr(pos + 4, 32) << ' ' << nl + 1 << ' '
        << end - (nl + 1) << '\n';
    ++count;
    pos = end;
  }
  return "idx " + std::to_string(count) + "\n" + idx.str() + "footer " +
         std::to_string(segment_bytes.size()) + "\n";
}

/// The registry counter `sweepcache.<name>`, the cache's only tally; tests
/// read deltas of it across the cache objects they drive.
std::uint64_t cache_counter(const std::string& name) {
  return obs::metrics().counter("sweepcache." + name).value();
}

/// Populates `dir` with the outcomes of `specs` through one packed cache
/// object (flushed and closed on return).
void populate_packed(const std::string& dir,
                     const std::vector<runner::ExperimentSpec>& specs) {
  const runner::SweepCache cache(dir);
  for (const auto& spec : specs) cache.store(spec, runner::run_experiment(spec));
}

std::uint64_t count_hits(const std::string& dir,
                         const std::vector<runner::ExperimentSpec>& specs) {
  const runner::SweepCache cache(dir);
  std::uint64_t hits = 0;
  for (const auto& spec : specs) hits += cache.lookup(spec).has_value();
  return hits;
}

TEST(Pack, StoreSealReopenServesEveryRecord) {
  const std::string dir = fresh_dir("pack_roundtrip");
  const auto specs = runner::scale_grid(24);
  populate_packed(dir, specs);

  // One segment on disk: the header, then exactly one frame per record —
  // no index or footer after the last one.
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::string bytes = read_file(segs[0]);
  EXPECT_EQ(bytes.rfind("asyncrv.cachepack.v1\n", 0), 0u);
  EXPECT_EQ(bytes.find("\nfooter "), std::string::npos);
  const auto ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), specs.size());
  EXPECT_EQ(ends.back(), bytes.size());

  const std::uint64_t segments0 = cache_counter("segments");
  const std::uint64_t records0 = cache_counter("pack_records");
  const std::uint64_t hits0 = cache_counter("hits");
  const runner::SweepCache cache(dir);
  EXPECT_EQ(cache_counter("segments") - segments0, 1u);
  EXPECT_EQ(cache_counter("pack_records") - records0, specs.size());
  for (const auto& spec : specs) {
    const auto hit = cache.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    // Exact substitution: identical to a live run of the same spec.
    const auto live = runner::run_experiment(spec);
    EXPECT_EQ(hit->status, live.status);
    EXPECT_EQ(hit->cost, live.cost);
  }
  EXPECT_EQ(cache_counter("hits") - hits0, specs.size());
}

TEST(Pack, WarmPipelineRunExecutesNothing) {
  const std::string dir = fresh_dir("pack_warm");
  const auto specs = runner::scale_grid(32);
  {
    const runner::SweepCache cache(dir);
    runner::PipelineOptions popts;
    popts.threads = 1;
    popts.batch = true;
    popts.cache = &cache;
    const auto cold = runner::ExperimentPipeline(popts).run(specs);
    EXPECT_EQ(cold.executed, specs.size());
  }
  const runner::SweepCache cache(dir);
  runner::PipelineOptions popts;
  popts.threads = 1;
  popts.batch = true;
  popts.cache = &cache;
  const auto warm = runner::ExperimentPipeline(popts).run(specs);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.cache_hits, specs.size());

  // Cold runs commit in spec order, so they write byte-identical segments
  // at 1 and 4 threads, scalar or batched, however the workers race. The
  // first cells run to their budget while the rest meet within a few
  // hundred traversals, so the pool finishes them out of spec order.
  const auto mixed = runner::rendezvous_grid(
      {"path:16", "edge", "ring:3", "star:5"}, {"fair", "random50"},
      {{9, 14}, {1, 2}}, /*budget=*/200'000, /*seed=*/1);
  for (const bool batch : {false, true}) {
    std::vector<std::string> segments;
    for (const int threads : {1, 4}) {
      const std::string cold_dir = fresh_dir("pack_cold_t" +
                                             std::to_string(threads));
      {
        const runner::SweepCache cold_cache(cold_dir);
        runner::PipelineOptions cold;
        cold.threads = threads;
        cold.batch = batch;
        cold.batch_size = 2;
        cold.cache = &cold_cache;
        runner::ExperimentPipeline(cold).run(mixed);
      }
      const auto segs = segment_paths(cold_dir);
      ASSERT_EQ(segs.size(), 1u);
      segments.push_back(read_file(segs[0]));
    }
    EXPECT_EQ(segments[0], segments[1])
        << "segment bytes depend on the thread count (batch=" << batch << ")";
  }
}

TEST(Pack, TruncationMidRecordKeepsThePrefixAndHeals) {
  const std::string dir = fresh_dir("pack_torn");
  const auto specs = runner::scale_grid(20);
  populate_packed(dir, specs);
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);

  // Cut the file mid-way through the LAST record's payload — the crash
  // shape. The scan must keep every record before the torn byte and miss
  // only the tail.
  const std::string bytes = read_file(segs[0]);
  ASSERT_GT(bytes.size(), 10u);
  write_file(segs[0], bytes.substr(0, bytes.size() - 10));

  EXPECT_EQ(count_hits(dir, specs), specs.size() - 1);

  // A pipeline re-run heals: exactly the torn cell re-executes, and the
  // run after that is fully warm again.
  {
    const runner::SweepCache cache(dir);
    runner::PipelineOptions popts;
    popts.threads = 1;
    popts.batch = true;
    popts.cache = &cache;
    const auto report = runner::ExperimentPipeline(popts).run(specs);
    EXPECT_EQ(report.cache_hits, specs.size() - 1);
    EXPECT_EQ(report.executed, 1u);
  }
  EXPECT_EQ(count_hits(dir, specs), specs.size());
}

TEST(Pack, EveryTruncationOffsetServesExactlyTheWholeRecords) {
  // A crash may cut a segment anywhere. At every offset from the empty
  // file to the full size, a reopen serves exactly the records whose
  // payload fits — never an error, never a partial record. A file shorter
  // than the header line is not a segment at all.
  const std::string dir = fresh_dir("pack_every_cut");
  const auto specs = runner::scale_grid(3);
  populate_packed(dir, specs);
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::string bytes = read_file(segs[0]);
  const auto ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), specs.size());
  ASSERT_EQ(ends.back(), bytes.size());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(segs[0], bytes.substr(0, cut));
    const auto whole = static_cast<std::uint64_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    const std::uint64_t segments0 = cache_counter("segments");
    const std::uint64_t records0 = cache_counter("pack_records");
    const runner::SweepCache cache(dir);
    ASSERT_EQ(cache_counter("segments") - segments0,
              cut >= kHeader.size() ? 1u : 0u)
        << "cut " << cut;
    ASSERT_EQ(cache_counter("pack_records") - records0, whole) << "cut " << cut;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(cache.lookup(specs[i]).has_value(), i < whole)
          << "cut " << cut << ", record " << i;
    }
  }
}

TEST(Pack, LegacySealedSegmentServesEveryRecord) {
  // Segments written by older releases end in an `idx`/`footer` trailer.
  // Its first line is not a frame, so the scan stops right after the last
  // record: every record serves, whole, garbled or cut at any offset.
  const std::string dir = fresh_dir("pack_legacy");
  const auto specs = runner::scale_grid(16);
  populate_packed(dir, specs);
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::string records = read_file(segs[0]);
  const std::string trailer = legacy_trailer(records);
  ASSERT_EQ(trailer.rfind("idx 16\n", 0), 0u);

  write_file(segs[0], records + trailer);
  EXPECT_EQ(count_hits(dir, specs), specs.size());
  std::string garbled = trailer;
  garbled.replace(garbled.rfind("footer "), 7, "fooper ");
  write_file(segs[0], records + garbled);
  EXPECT_EQ(count_hits(dir, specs), specs.size());
  for (std::size_t cut = 0; cut < trailer.size(); ++cut) {
    write_file(segs[0], records + trailer.substr(0, cut));
    ASSERT_EQ(count_hits(dir, specs), specs.size()) << "trailer cut " << cut;
  }
}

TEST(Pack, SegmentLargerThanOneReadWindowLoadsInFull) {
  // open() reads a segment in 1 MiB windows. A ~2 MB segment reopens in
  // full, and a cut inside the second window keeps exactly the prefix.
  const std::string dir = fresh_dir("pack_big");
  const auto specs = runner::scale_grid(5000);
  {
    const runner::SweepCache cache(dir);
    runner::PipelineOptions popts;
    popts.threads = 1;
    popts.cache = &cache;
    runner::ExperimentPipeline(popts).run(specs);
  }
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::size_t window = std::size_t{1} << 20;
  const std::string bytes = read_file(segs[0]);
  ASSERT_GT(bytes.size(), window + window / 2);
  const auto ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), specs.size());
  EXPECT_EQ(count_hits(dir, specs), specs.size());

  for (const std::size_t cut : {window - 1, window, window + 1, window + 40,
                                window + (window >> 1), bytes.size() - 1}) {
    write_file(segs[0], bytes.substr(0, cut));
    const auto whole = static_cast<std::uint64_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    EXPECT_EQ(count_hits(dir, specs), whole) << "cut " << cut;
  }
}

TEST(Pack, FrameLinesAcrossAReadWindowBoundaryParse) {
  // One large record pushes the next frame line across the 1 MiB window
  // boundary; sliding its length moves the line over the boundary byte by
  // byte, and every record after it still serves.
  const std::string dir = fresh_dir("pack_straddle");
  const auto specs = runner::scale_grid(4);
  populate_packed(dir, specs);
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::string records = read_file(segs[0]).substr(kHeader.size());
  const std::string filler_frame =
      "rec 00000000000000000000000000000000 1048500\n";
  const std::size_t window = std::size_t{1} << 20;
  for (std::size_t shift = 0; shift <= 64; ++shift) {
    const std::size_t len =
        window - kHeader.size() - filler_frame.size() - 48 + shift;
    const std::string filler = "rec 00000000000000000000000000000000 " +
                               std::to_string(len) + "\n" +
                               std::string(len, 'x');
    write_file(segs[0], kHeader + filler + records);
    ASSERT_EQ(count_hits(dir, specs), specs.size()) << "shift " << shift;
  }
}

TEST(Pack, StrayLooseFileIsIgnored) {
  // A valid `<fingerprint>.outcome` file — the one-file-per-cell layout
  // of older releases — is not read: its cell is a miss, re-executes once
  // and lands in a pack, and compaction leaves the file where it is.
  const std::string dir = fresh_dir("pack_stray");
  fs::create_directories(dir);
  const runner::ExperimentSpec spec = runner::scale_grid(4)[0];
  const std::string stray = dir + "/" + spec.fingerprint().hex() + ".outcome";
  const std::string bytes = entry_bytes(spec);
  write_file(stray, bytes);

  const std::uint64_t hits0 = cache_counter("hits");
  const std::uint64_t records0 = cache_counter("pack_records");
  const runner::SweepCache cache(dir);
  EXPECT_FALSE(cache.lookup(spec).has_value());
  runner::PipelineOptions popts;
  popts.threads = 1;
  popts.cache = &cache;
  const auto report = runner::ExperimentPipeline(popts).run({spec});
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache_counter("hits") - hits0, 1u);
  EXPECT_EQ(cache_counter("pack_records") - records0, 1u);

  EXPECT_EQ(cache.compact().records, 1u);
  EXPECT_EQ(read_file(stray), bytes);
  EXPECT_EQ(count_hits(dir, {spec}), 1u);
}

TEST(Pack, CompactMergesSegments) {
  const std::string dir = fresh_dir("pack_compact");
  const auto specs = runner::scale_grid(18);
  {
    // Two segments; every third cell is in both (one record survives).
    const runner::SweepCache packed_a(dir);
    const runner::SweepCache packed_b(dir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto out = runner::run_experiment(specs[i]);
      if (i % 3 != 2) packed_a.store(specs[i], out);
      if (i % 3 != 1) packed_b.store(specs[i], out);
    }
  }
  // Plus a file that is not a segment, which compaction must leave alone.
  write_file(dir + "/0123456789abcdef0123456789abcdef.outcome", "garbage");

  const runner::SweepCache cache(dir);
  const auto cs = cache.compact();
  EXPECT_EQ(cs.records, specs.size());
  EXPECT_EQ(cs.segments_merged, 2u);

  // One segment remains next to the untouched foreign file, its records in
  // fingerprint order with no footer after them; every record still serves
  // — through the same (post-compact) cache object and through a fresh
  // open.
  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  const std::string bytes = read_file(segs[0]);
  EXPECT_EQ(bytes.find("\nfooter "), std::string::npos);
  const auto ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), specs.size());
  EXPECT_EQ(ends.back(), bytes.size());
  std::vector<std::string> fps;
  std::size_t pos = kHeader.size();
  for (const std::size_t end : ends) {
    fps.push_back(bytes.substr(pos + 4, 32));
    pos = end;
  }
  EXPECT_TRUE(std::is_sorted(fps.begin(), fps.end()));
  EXPECT_EQ(read_file(dir + "/0123456789abcdef0123456789abcdef.outcome"),
            "garbage");
  for (const auto& spec : specs) EXPECT_TRUE(cache.lookup(spec).has_value());
  EXPECT_EQ(count_hits(dir, specs), specs.size());
}

TEST(Pack, GarbageSegmentFileIsIgnored) {
  const std::string dir = fresh_dir("pack_garbage");
  const auto specs = runner::scale_grid(8);
  populate_packed(dir, specs);
  write_file(dir + "/junk.cachepack", "not a segment at all\nrec zz qq\n");
  write_file(dir + "/empty.cachepack", "");
  EXPECT_EQ(count_hits(dir, specs), specs.size());
}

TEST(Pack, TwoProcessesAppendPrivateSegmentsSafely) {
  const std::string dir = fresh_dir("pack_twoproc");
  const auto specs = runner::scale_grid(16);
  const std::size_t half = specs.size() / 2;

  const ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: its own cache object, its own segment, first half.
    {
      const runner::SweepCache cache(dir);
      for (std::size_t i = 0; i < half; ++i) {
        cache.store(specs[i], runner::run_experiment(specs[i]));
      }
    }
    ::_exit(0);
  }
  {
    const runner::SweepCache cache(dir);
    for (std::size_t i = half; i < specs.size(); ++i) {
      cache.store(specs[i], runner::run_experiment(specs[i]));
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Two private segments, no interleaving, every record readable.
  EXPECT_EQ(segment_paths(dir).size(), 2u);
  EXPECT_EQ(count_hits(dir, specs), specs.size());
}

TEST(Pack, FailedAppendIsCountedAndOutputsStayIdentical) {
  // A store that hits the file-size limit mid-record is a counted failure,
  // never an error: the run's rows are unchanged, the records written
  // before the failure serve on the next open, and only the lost cells
  // re-execute.
  const std::string dir = fresh_dir("pack_fsize");
  const auto specs = runner::scale_grid(24);
  const auto jsonl_of = [&](const runner::SweepCache* cache) {
    std::ostringstream bytes;
    runner::JsonlSink sink(bytes);
    runner::PipelineOptions popts;
    popts.threads = 1;
    popts.cache = cache;
    popts.sinks = {&sink};
    runner::ExperimentPipeline(popts).run(specs);
    return bytes.str();
  };
  const std::string reference = jsonl_of(nullptr);

  // Cells commit in spec order: allow the header, `kept` whole records and
  // half of the next one.
  const std::size_t kept = 3;
  std::size_t limit = std::string("asyncrv.cachepack.v1\n").size();
  for (std::size_t i = 0; i <= kept; ++i) {
    const std::string payload = entry_bytes(specs[i]);
    const std::size_t record =
        ("rec " + specs[i].fingerprint().hex() + " " +
         std::to_string(payload.size()) + "\n" + payload)
            .size();
    limit += i < kept ? record : record / 2;
  }

  const ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child only: the signal disposition and the limit die with it.
    std::signal(SIGXFSZ, SIG_IGN);
    ::rlimit rl{};
    if (::getrlimit(RLIMIT_FSIZE, &rl) != 0) ::_exit(10);
    rl.rlim_cur = static_cast<::rlim_t>(limit);
    if (::setrlimit(RLIMIT_FSIZE, &rl) != 0) ::_exit(11);
    const obs::Counter& failures =
        obs::metrics().counter("sweepcache.write_failures");
    const std::uint64_t before = failures.value();
    std::string jsonl;
    {
      const runner::SweepCache cache(dir);
      jsonl = jsonl_of(&cache);
    }
    if (jsonl != reference) ::_exit(1);
    if (failures.value() - before != 1) ::_exit(2);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "1 = JSONL differs from a cache-less run, 2 = write_failures != 1";

  EXPECT_EQ(count_hits(dir, specs), kept);
  const runner::SweepCache cache(dir);
  runner::PipelineOptions popts;
  popts.threads = 1;
  popts.cache = &cache;
  const auto report = runner::ExperimentPipeline(popts).run(specs);
  EXPECT_EQ(report.cache_hits, kept);
  EXPECT_EQ(report.executed, specs.size() - kept);
}

}  // namespace
}  // namespace asyncrv
