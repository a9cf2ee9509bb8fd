// The persistent sweep cache: exact outcome round-trips, cold-vs-warm
// report identity at every thread count, and the corruption/version
// tolerance contract (a bad entry is a miss, never an error).
#include "runner/cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "runner/pipeline.h"
#include "runner/registry.h"

namespace asyncrv {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty cache directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("asyncrv_" + name);
  fs::remove_all(dir);
  return dir.string();
}

runner::ExperimentSpec rv_spec(std::uint64_t seed = 42,
                               bool record_schedule = false) {
  runner::RendezvousSpec rv;
  rv.graph = "ring:5";
  rv.adversary = "oscillating";
  rv.labels = {5, 12};
  rv.budget = 2'000'000;
  rv.seed = seed;
  rv.record_schedule = record_schedule;
  return {.name = "", .scenario = std::move(rv)};
}

runner::ExperimentSpec sgl_spec() {
  runner::SglSpec sgl;
  sgl.graph = "ring:3";
  sgl.labels = {3, 7};
  sgl.budget = 60'000'000;
  sgl.seed = 5;
  return {.name = "", .scenario = std::move(sgl)};
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

/// The encoded entry of a live run of `spec` — the bytes a pack record
/// frames.
std::string entry_bytes(const runner::ExperimentSpec& spec) {
  return runner::encode_outcome(spec, runner::run_experiment(spec),
                                runner::SweepCache::kFormatVersion);
}

bool decodes(const runner::ExperimentSpec& spec, const std::string& bytes) {
  return runner::decode_outcome(spec, bytes,
                                runner::SweepCache::kFormatVersion)
      .has_value();
}

/// Writes `dir` as one unsealed pack segment whose single record frames
/// `payload` under `spec`'s fingerprint — a tampered or torn record as a
/// reader meets it — and reports whether a freshly opened cache hits it.
bool planted_record_hits(const std::string& dir,
                         const runner::ExperimentSpec& spec,
                         const std::string& payload) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_file(dir + "/seg-planted.cachepack",
             "asyncrv.cachepack.v1\nrec " + spec.fingerprint().hex() + " " +
                 std::to_string(payload.size()) + "\n" + payload);
  return runner::SweepCache(dir).lookup(spec).has_value();
}

TEST(CacheCodec, RendezvousOutcomeRoundTripsExactly) {
  const runner::ExperimentSpec spec = rv_spec(42, /*record_schedule=*/true);
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out.rendezvous()->schedule.steps.empty());

  const std::string bytes = runner::encode_outcome(spec, out, 1);
  const auto back = runner::decode_outcome(spec, bytes, 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, out.status);
  EXPECT_EQ(back->cost, out.cost);
  EXPECT_EQ(back->budget_exhausted, out.budget_exhausted);
  EXPECT_EQ(back->error, out.error);
  const RendezvousResult &a = out.rendezvous()->result,
                         &b = back->rendezvous()->result;
  EXPECT_EQ(a.met, b.met);
  EXPECT_TRUE(a.meeting_point == b.meeting_point);
  EXPECT_EQ(a.traversals_a, b.traversals_a);
  EXPECT_EQ(a.traversals_b, b.traversals_b);
  ASSERT_EQ(out.rendezvous()->schedule.steps.size(),
            back->rendezvous()->schedule.steps.size());
  for (std::size_t i = 0; i < out.rendezvous()->schedule.steps.size(); ++i) {
    EXPECT_EQ(out.rendezvous()->schedule.steps[i].agent,
              back->rendezvous()->schedule.steps[i].agent);
    EXPECT_EQ(out.rendezvous()->schedule.steps[i].delta,
              back->rendezvous()->schedule.steps[i].delta);
  }
  // Re-encoding the decoded outcome reproduces the bytes — the encoder and
  // decoder cannot drift apart silently.
  EXPECT_EQ(runner::encode_outcome(spec, *back, 1), bytes);
}

TEST(CacheCodec, SglOutcomeRoundTripsWithDerivedApplications) {
  const runner::ExperimentSpec spec = sgl_spec();
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_TRUE(out.ok());

  const std::string bytes = runner::encode_outcome(spec, out, 1);
  const auto back = runner::decode_outcome(spec, bytes, 1);
  ASSERT_TRUE(back.has_value());
  const runner::SglOutcome &a = *out.sgl(), &b = *back->sgl();
  EXPECT_EQ(a.run.completed, b.run.completed);
  EXPECT_EQ(a.run.total_traversals, b.run.total_traversals);
  EXPECT_EQ(a.run.outputs, b.run.outputs);
  EXPECT_EQ(a.run.final_states, b.run.final_states);
  EXPECT_EQ(a.run.traversals_per_agent, b.run.traversals_per_agent);
  // Applications are re-derived, not stored — and identical.
  EXPECT_EQ(a.apps.team_size, b.apps.team_size);
  EXPECT_EQ(a.apps.leader, b.apps.leader);
  EXPECT_EQ(a.apps.new_name, b.apps.new_name);
  EXPECT_EQ(a.apps.gossip, b.apps.gossip);
}

TEST(CacheCodec, SearchOutcomeRoundTripsExactly) {
  runner::SearchSpec se;
  se.graph = "ring:6";
  se.objective = "rv-cost";
  se.optimizer = "random";
  se.labels = {5, 12};
  se.budget = 20'000;
  se.evaluations = 25;
  se.seed = 9;
  const runner::ExperimentSpec spec{.name = "", .scenario = std::move(se)};
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_TRUE(out.ok()) << out.error;
  ASSERT_NE(out.search(), nullptr);
  ASSERT_FALSE(out.search()->best_genome.empty());

  const std::string bytes = runner::encode_outcome(spec, out, 1);
  const auto back = runner::decode_outcome(spec, bytes, 1);
  ASSERT_TRUE(back.has_value());
  const runner::SearchOutcome &a = *out.search(), &b = *back->search();
  EXPECT_EQ(a.best_genome, b.best_genome);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_phase, b.best_phase);
  EXPECT_EQ(a.best_met, b.best_met);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.best_violation, b.best_violation);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.improvements, b.improvements);
  // Re-encoding reproduces the bytes: no silent encoder/decoder drift.
  EXPECT_EQ(runner::encode_outcome(spec, *back, 1), bytes);
  // A truncated entry is a miss, never a mangled outcome.
  EXPECT_FALSE(
      runner::decode_outcome(spec, bytes.substr(0, bytes.size() / 2), 1)
          .has_value());
}

TEST(CacheCodec, ErrorOutcomeRoundTrips) {
  runner::ExperimentSpec spec = rv_spec();
  std::get<runner::RendezvousSpec>(spec.scenario).labels = {5};  // invalid
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  ASSERT_EQ(out.status, runner::RunStatus::Error);
  const std::string bytes = runner::encode_outcome(spec, out, 1);
  const auto back = runner::decode_outcome(spec, bytes, 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, runner::RunStatus::Error);
  EXPECT_EQ(back->error, out.error);
}

// --- golden records ---------------------------------------------------------
//
// The round-trip tests above would still pass if the encoder changed the
// bytes it stores; these pin one record per result kind byte for byte.
// A failure here means existing caches go cold (bump kFormatVersion),
// never a test update.

/// Asserts `out` encodes to exactly `golden` and that the golden record
/// decodes back to an outcome that re-encodes to the same bytes.
void expect_golden_record(const runner::ExperimentSpec& spec,
                          const runner::ExperimentOutcome& out,
                          const std::string& golden) {
  EXPECT_EQ(runner::encode_outcome(spec, out, 1), golden);
  const auto back = runner::decode_outcome(spec, golden, 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(runner::encode_outcome(spec, *back, 1), golden);
}

TEST(CacheCodec, GoldenRendezvousRecordWithSchedule) {
  const runner::ExperimentSpec spec = rv_spec(42, /*record_schedule=*/true);
  runner::ExperimentOutcome out;
  out.status = runner::RunStatus::Ok;
  out.cost = 1234;
  runner::RendezvousOutcome rv;
  rv.result.met = true;
  rv.result.meeting_point = Pos::on_edge(3, 17);
  rv.result.traversals_a = 600;
  rv.result.traversals_b = 634;
  rv.schedule.steps = {{0, 5}, {1, -3}, {0, INT64_MAX}, {1, INT64_MIN + 1}};
  out.result = rv;
  expect_golden_record(spec, out,
                       "asyncrv.cache.v1\n"
                       "spec-bytes=181\n"
                       "asyncrv.spec.v1\n"
                       "kind=rendezvous\n"
                       "graph=ring%3a5\n"
                       "adversary=oscillating\n"
                       "algo=rv-asynch-poly\n"
                       "labels=5,12\n"
                       "starts=\n"
                       "budget=2000000\n"
                       "seed=42\n"
                       "ppoly=tiny\n"
                       "kit_seed=1592590337\n"
                       "record_schedule=1\n"
                       "status=ok\n"
                       "budget_exhausted=0\n"
                       "cost=1234\n"
                       "error=\n"
                       "kind=rendezvous\n"
                       "met=1\n"
                       "meeting=edge:3:17\n"
                       "ta=600\n"
                       "tb=634\n"
                       "rv_budget=0\n"
                       "schedule=0:5,1:-3,0:9223372036854775807,"
                       "1:-9223372036854775807\n"
                       "end\n");
}

TEST(CacheCodec, GoldenSglRecordEscapesOutputValues) {
  const runner::ExperimentSpec spec = sgl_spec();
  runner::ExperimentOutcome out;
  out.status = runner::RunStatus::Unresolved;
  out.budget_exhausted = true;
  out.cost = UINT64_MAX;
  runner::SglOutcome sgl;
  sgl.run.budget_exhausted = true;
  sgl.run.outputs = {{{3, "v:3"}, {7, "a,b%c\nd"}}, {}};
  sgl.run.final_states = {SglState::Explorer, SglState::Dormant};
  sgl.run.total_traversals = 77;
  sgl.run.traversals_per_agent = {40, 37};
  out.result = sgl;
  expect_golden_record(spec, out,
                       "asyncrv.cache.v1\n"
                       "spec-bytes=136\n"
                       "asyncrv.spec.v1\n"
                       "kind=sgl\n"
                       "graph=ring%3a3\n"
                       "labels=3,7\n"
                       "starts=\n"
                       "budget=60000000\n"
                       "seed=5\n"
                       "ppoly=tiny\n"
                       "kit_seed=1592590337\n"
                       "robust_phase3=1\n"
                       "team=0\n"
                       "status=unresolved\n"
                       "budget_exhausted=1\n"
                       "cost=18446744073709551615\n"
                       "error=\n"
                       "kind=sgl\n"
                       "completed=0\n"
                       "sgl_budget=1\n"
                       "stuck=0\n"
                       "total=77\n"
                       "per_agent=40,37\n"
                       "states=2,0\n"
                       "outputs=2\n"
                       "output.0=3:v%3a3,7:a%2cb%25c%0ad\n"
                       "output.1=\n"
                       "end\n");
}

TEST(CacheCodec, GoldenSearchRecord) {
  runner::SearchSpec se;
  se.graph = "ring:6";
  se.labels = {5, 12};
  se.seed = 9;
  const runner::ExperimentSpec spec{.name = "", .scenario = std::move(se)};
  runner::ExperimentOutcome out;
  out.status = runner::RunStatus::Ok;
  out.cost = 0;
  runner::SearchOutcome res;
  res.best_genome = "g1:0:3:2,1:5:1";
  res.best_score = 981;
  res.best_cost = 980;
  res.best_phase = 4;
  res.best_met = true;
  res.bound = UINT64_MAX;
  res.violations = 2;
  res.best_violation = true;
  res.evaluations = 200;
  res.improvements = 13;
  out.result = res;
  expect_golden_record(spec, out,
                       "asyncrv.cache.v1\n"
                       "spec-bytes=179\n"
                       "asyncrv.spec.v1\n"
                       "kind=search\n"
                       "graph=ring%3a6\n"
                       "objective=rv-cost\n"
                       "optimizer=hill\n"
                       "labels=5,12\n"
                       "starts=\n"
                       "budget=2000000\n"
                       "evaluations=200\n"
                       "genome_len=16\n"
                       "seed=9\n"
                       "ppoly=tiny\n"
                       "kit_seed=1592590337\n"
                       "status=ok\n"
                       "budget_exhausted=0\n"
                       "cost=0\n"
                       "error=\n"
                       "kind=search\n"
                       "best_genome=g1%3a0%3a3%3a2%2c1%3a5%3a1\n"
                       "best_score=981\n"
                       "best_cost=980\n"
                       "best_phase=4\n"
                       "best_met=1\n"
                       "bound=18446744073709551615\n"
                       "violations=2\n"
                       "best_violation=1\n"
                       "evaluations=200\n"
                       "improvements=13\n"
                       "end\n");
}

TEST(CacheCodec, GoldenErrorRecordEscapesTheMessage) {
  runner::ExperimentSpec spec = rv_spec();
  std::get<runner::RendezvousSpec>(spec.scenario).labels = {5};
  runner::ExperimentOutcome out;
  out.status = runner::RunStatus::Error;
  out.error = "bad spec: labels=5,\n100% \x01wrong";
  expect_golden_record(spec, out,
                       "asyncrv.cache.v1\n"
                       "spec-bytes=178\n"
                       "asyncrv.spec.v1\n"
                       "kind=rendezvous\n"
                       "graph=ring%3a5\n"
                       "adversary=oscillating\n"
                       "algo=rv-asynch-poly\n"
                       "labels=5\n"
                       "starts=\n"
                       "budget=2000000\n"
                       "seed=42\n"
                       "ppoly=tiny\n"
                       "kit_seed=1592590337\n"
                       "record_schedule=0\n"
                       "status=error\n"
                       "budget_exhausted=0\n"
                       "cost=0\n"
                       "error=bad spec%3a labels=5%2c%0a100%25 %01wrong\n"
                       "kind=none\n"
                       "end\n");
}

TEST(CacheCodec, StoredSpecDifferingInItsLastByteIsAMiss) {
  // Same length, same fingerprint slot, one byte off: the byte compare of
  // the stored spec, not the length check, must reject it.
  const std::string dir = fresh_dir("last_byte");
  const runner::ExperimentSpec spec = rv_spec();
  const std::string good = entry_bytes(spec);
  const std::string canonical = spec.canonical();
  const std::size_t spec_at = good.find(canonical);
  ASSERT_NE(spec_at, std::string::npos);
  const std::size_t last = spec_at + canonical.size() - 1;
  for (const std::size_t at : {last - 1, last}) {
    std::string bad = good;
    bad[at] = bad[at] == '0' ? '1' : '0';
    EXPECT_FALSE(decodes(spec, bad)) << "byte " << at;
    EXPECT_FALSE(planted_record_hits(dir, spec, bad)) << "byte " << at;
  }
  EXPECT_TRUE(planted_record_hits(dir, spec, good));
}

TEST(CacheCodec, SpecBytesRunningPastThePayloadIsAMiss) {
  const std::string dir = fresh_dir("spec_bytes");
  const runner::ExperimentSpec spec = rv_spec();
  const std::string good = entry_bytes(spec);
  const std::string canonical = spec.canonical();
  const std::string length_line =
      "spec-bytes=" + std::to_string(canonical.size()) + "\n";
  const std::size_t spec_at = good.find(length_line) + length_line.size();
  ASSERT_EQ(good.compare(spec_at, canonical.size(), canonical), 0);
  // The right length, but the payload ends inside the spec.
  for (const std::size_t keep : {spec_at, spec_at + 1,
                                 spec_at + canonical.size() - 1}) {
    const std::string cut = good.substr(0, keep);
    EXPECT_FALSE(decodes(spec, cut)) << "cut at " << keep;
    EXPECT_FALSE(planted_record_hits(dir, spec, cut)) << "cut at " << keep;
  }
  // A length past the end of the payload.
  std::string long_claim = good;
  long_claim.replace(good.find(length_line), length_line.size(),
                     "spec-bytes=" + std::to_string(good.size() + 1) + "\n");
  EXPECT_FALSE(decodes(spec, long_claim));
  EXPECT_FALSE(planted_record_hits(dir, spec, long_claim));
}

TEST(Cache, StoreThenLookupHits) {
  const runner::SweepCache cache(fresh_dir("hit"));
  const runner::ExperimentSpec spec = rv_spec();
  EXPECT_FALSE(cache.lookup(spec).has_value());
  const runner::ExperimentOutcome out = runner::run_experiment(spec);
  cache.store(spec, out);
  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, out.cost);
  // A semantically different spec misses even though the dir is warm.
  EXPECT_FALSE(cache.lookup(rv_spec(43)).has_value());
}

TEST(Cache, TruncatedEntryIsAMissNotAnError) {
  const std::string dir = fresh_dir("trunc");
  const runner::ExperimentSpec spec = rv_spec(42, /*record_schedule=*/true);
  const std::string bytes = entry_bytes(spec);
  ASSERT_TRUE(decodes(spec, bytes));
  ASSERT_TRUE(planted_record_hits(dir, spec, bytes));
  // Every proper prefix must be a clean miss (the "end" trailer guards),
  // both to the decoder and as a pack record's payload.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{17}, std::size_t{0}}) {
    EXPECT_FALSE(decodes(spec, bytes.substr(0, keep))) << "prefix " << keep;
    EXPECT_FALSE(planted_record_hits(dir, spec, bytes.substr(0, keep)))
        << "prefix " << keep;
  }
  EXPECT_TRUE(planted_record_hits(dir, spec, bytes));
}

TEST(Cache, CorruptedEntryIsAMissNotAnError) {
  const std::string dir = fresh_dir("corrupt");
  const runner::ExperimentSpec spec = rv_spec();
  const std::string good = entry_bytes(spec);
  ASSERT_TRUE(planted_record_hits(dir, spec, good));

  // Flipped cost digits -> still parses numerically; the decoder accepts
  // it (contents are trusted once the spec matches) — so corrupt the
  // structure instead: garbage bytes, a wrong header, a foreign spec.
  std::string wrong_spec = good;
  const std::size_t at = wrong_spec.find("adversary=oscillating");
  ASSERT_NE(at, std::string::npos);
  wrong_spec.replace(at, 21, "adversary=fair\n\n\n\n\n\n");
  for (const std::string& bad :
       {std::string("garbage\n"),
        std::string("asyncrv.cache.v1\nnot-a-field\n"), wrong_spec}) {
    EXPECT_FALSE(decodes(spec, bad)) << bad;
    EXPECT_FALSE(planted_record_hits(dir, spec, bad)) << bad;
  }

  EXPECT_TRUE(planted_record_hits(dir, spec, good));
}

TEST(Cache, VersionBumpInvalidatesEverything) {
  const std::string dir = fresh_dir("version");
  const runner::ExperimentSpec spec = rv_spec();
  {
    const runner::SweepCache v1(dir, 1);
    v1.store(spec, runner::run_experiment(spec));
    EXPECT_TRUE(v1.lookup(spec).has_value());
  }
  const runner::SweepCache v2(dir, 2);
  EXPECT_FALSE(v2.lookup(spec).has_value());
  // And after the v2 sweep rewrites it, v1 readers miss instead of
  // misreading.
  v2.store(spec, runner::run_experiment(spec));
  EXPECT_TRUE(v2.lookup(spec).has_value());
  EXPECT_FALSE(runner::SweepCache(dir, 1).lookup(spec).has_value());
}

TEST(Cache, ColdThenWarmSweepIsByteIdenticalAtEveryThreadCount) {
  // The acceptance property: a >= 100-scenario sweep run cold, then warm,
  // executes zero simulations the second time and emits byte-identical
  // machine-readable reports, regardless of thread count.
  const auto specs = runner::rendezvous_grid(
      {"edge", "path:3", "ring:3", "ring:4", "star:5"},
      adversary_battery_names(), {{1, 2}, {5, 12}},
      /*budget=*/400'000, /*seed=*/0xbeef);
  ASSERT_GE(specs.size(), 100u);
  const runner::SweepCache cache(fresh_dir("sweep"));

  const auto run_with = [&](int threads) {
    std::ostringstream jsonl_bytes, csv_bytes;
    runner::JsonlSink jsonl(jsonl_bytes);
    runner::CsvSink csv(csv_bytes);
    runner::PipelineOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    opts.sinks = {&jsonl, &csv};
    const runner::PipelineReport report =
        runner::ExperimentPipeline(opts).run(specs);
    return std::make_tuple(jsonl_bytes.str(), csv_bytes.str(),
                           report.cache_hits, report.executed,
                           report.summary());
  };

  const auto [cold_jsonl, cold_csv, cold_hits, cold_exec, cold_summary] =
      run_with(4);
  EXPECT_EQ(cold_hits, 0u);
  EXPECT_EQ(cold_exec, specs.size());

  for (const int threads : {1, 2, 4}) {
    const auto [jsonl, csv, hits, exec, summary] = run_with(threads);
    EXPECT_EQ(exec, 0u) << "warm run simulated cells @" << threads;
    EXPECT_EQ(hits, specs.size());
    EXPECT_EQ(jsonl, cold_jsonl) << "JSONL drifted @" << threads;
    EXPECT_EQ(csv, cold_csv) << "CSV drifted @" << threads;
    EXPECT_EQ(summary, cold_summary);
  }
}

TEST(Cache, EnlargedGridOnlyExecutesNewCells) {
  const runner::SweepCache cache(fresh_dir("grow"));
  const auto small = runner::rendezvous_grid({"ring:3"}, {"fair", "random50"},
                                             {{1, 2}}, 400'000, 7);
  runner::PipelineOptions opts;
  opts.cache = &cache;
  const auto first = runner::ExperimentPipeline(opts).run(small);
  EXPECT_EQ(first.executed, small.size());

  // Same seed derivation + a second graph: the ring:3 cells are reused.
  const auto grown = runner::rendezvous_grid({"ring:3", "path:3"},
                                             {"fair", "random50"}, {{1, 2}},
                                             400'000, 7);
  const auto second = runner::ExperimentPipeline(opts).run(grown);
  EXPECT_EQ(second.cache_hits, small.size());
  EXPECT_EQ(second.executed, grown.size() - small.size());
}

TEST(Cache, TruncatedAtCommitEntryDegradesToMissAndHeals) {
  // The crash-durability contract: whatever prefix of a pack record's
  // payload survives a power cut — including zero bytes — is a miss, never
  // a hit or an error, and the miss is repairable: a pipeline run
  // re-executes the cell, re-appends it, and the next lookup hits.
  const std::string dir = fresh_dir("truncated");
  const runner::SweepCache cache(dir);
  const runner::ExperimentSpec spec = rv_spec();
  const std::string bytes = entry_bytes(spec);
  const std::vector<std::size_t> keeps = {0, bytes.size() / 2,
                                          bytes.size() - 1};

  runner::PipelineOptions opts;
  opts.cache = &cache;
  const std::string frame = "rec " + spec.fingerprint().hex() + " ";
  for (const std::size_t keep : keeps) {
    // Cold (first pass) or damaged (later passes): executes and re-appends.
    const auto report = runner::ExperimentPipeline(opts).run({spec});
    EXPECT_EQ(report.cache_hits, 0u);
    EXPECT_EQ(report.executed, 1u);
    ASSERT_TRUE(cache.lookup(spec).has_value());

    // Zero the newest record's payload from byte `keep` on, in place.
    std::string segment;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".cachepack") segment = e.path().string();
    }
    const std::string seg_bytes = read_file(segment);
    const std::size_t frame_at = seg_bytes.rfind(frame);
    ASSERT_NE(frame_at, std::string::npos);
    const std::size_t payload = seg_bytes.find('\n', frame_at) + 1;
    ASSERT_EQ(seg_bytes.substr(payload, bytes.size()), bytes);
    {
      std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(static_cast<std::streamoff>(payload + keep));
      f << std::string(bytes.size() - keep, '\0');
    }
    EXPECT_FALSE(cache.lookup(spec).has_value())
        << "a " << keep << "/" << bytes.size()
        << "-byte pack record must be a miss, not a hit or an error";
  }
  const auto healed = runner::ExperimentPipeline(opts).run({spec});
  EXPECT_EQ(healed.executed, 1u);
  EXPECT_TRUE(cache.lookup(spec).has_value());
}

TEST(Cache, CachedErrorsAreServedWithoutReexecution) {
  const runner::SweepCache cache(fresh_dir("errors"));
  runner::ExperimentSpec bad = rv_spec();
  std::get<runner::RendezvousSpec>(bad.scenario).graph = "gremlin:4";
  runner::PipelineOptions opts;
  opts.cache = &cache;
  const auto first = runner::ExperimentPipeline(opts).run({bad});
  EXPECT_EQ(first.totals.errored, 1u);
  const auto second = runner::ExperimentPipeline(opts).run({bad});
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.totals.errored, 1u);
  EXPECT_EQ(second.outcomes[0].error, first.outcomes[0].error);
}

}  // namespace
}  // namespace asyncrv
