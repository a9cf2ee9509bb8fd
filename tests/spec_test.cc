// Spec canonicalization and fingerprints: the cache-key stability contract.
//
// Three properties are load-bearing for the persistent sweep cache
// (DESIGN.md §3):
//  * display-only data (the `name` label) never changes a fingerprint;
//  * EVERY semantic field changes it;
//  * the canonical form / hash pair is frozen — golden fingerprints pinned
//    here must survive releases, or on-disk caches silently go cold.
#include "runner/spec.h"

#include <gtest/gtest.h>

namespace asyncrv {
namespace {

runner::ExperimentSpec rv_spec() {
  runner::RendezvousSpec rv;
  rv.graph = "ring:6";
  rv.adversary = "fair";
  rv.labels = {5, 12};
  return {.name = "", .scenario = std::move(rv)};
}

runner::ExperimentSpec sgl_spec() {
  runner::SglSpec sgl;
  sgl.graph = "ring:5";
  sgl.labels = {3, 7};
  sgl.budget = 60'000'000;
  sgl.seed = 5;
  return {.name = "", .scenario = std::move(sgl)};
}

runner::ExperimentSpec search_spec() {
  runner::SearchSpec se;
  se.graph = "ring:12";
  se.objective = "rv-cost";
  se.optimizer = "hill";
  se.labels = {5, 12};
  se.starts = {0, 6};
  se.budget = 40'000;
  se.evaluations = 240;
  se.genome_len = 16;
  se.seed = 7;
  return {.name = "", .scenario = std::move(se)};
}

TEST(Fingerprint, HexRendering) {
  runner::Fingerprint fp;
  fp.hi = 0x0123456789abcdefULL;
  fp.lo = 0xfedcba9876543210ULL;
  EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(runner::Fingerprint{}.hex(), "00000000000000000000000000000000");
}

TEST(Fingerprint, KnownFnv1a128Vectors) {
  // FNV-1a-128 of "" is the offset basis; further values pin the prime.
  EXPECT_EQ(runner::fingerprint_bytes("").hex(),
            "6c62272e07bb014262b821756295c58d");
  const runner::Fingerprint a = runner::fingerprint_bytes("a");
  EXPECT_NE(a, runner::fingerprint_bytes("b"));
  EXPECT_EQ(a, runner::fingerprint_bytes("a"));
}

TEST(Spec, NameIsDisplayOnly) {
  runner::ExperimentSpec a = rv_spec();
  runner::ExperimentSpec b = rv_spec();
  b.name = "a completely different display label";
  EXPECT_NE(a.display(), b.display());
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Spec, AssignmentOrderIsIrrelevant) {
  // Build the same rendezvous spec assigning fields in two different
  // orders; the canonical form fixes its own field order.
  runner::RendezvousSpec x;
  x.graph = "grid:3x4";
  x.adversary = "avoider";
  x.labels = {9, 14};
  x.seed = 7;
  runner::RendezvousSpec y;
  y.seed = 7;
  y.labels = {9, 14};
  y.adversary = "avoider";
  y.graph = "grid:3x4";
  const runner::ExperimentSpec ex{.name = "x", .scenario = x};
  const runner::ExperimentSpec ey{.name = "y", .scenario = y};
  EXPECT_EQ(ex.fingerprint(), ey.fingerprint());
}

TEST(Spec, EveryRendezvousFieldIsSemantic) {
  const runner::Fingerprint base = rv_spec().fingerprint();
  const auto differs = [&](auto mutate) {
    runner::ExperimentSpec spec = rv_spec();
    mutate(std::get<runner::RendezvousSpec>(spec.scenario));
    return spec.fingerprint() != base;
  };
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.graph = "ring:7"; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.adversary = "skew"; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) {
    s.algo = runner::RouteAlgo::Baseline;
  }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.labels = {5, 13}; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.starts = {0, 3}; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.budget += 1; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.seed += 1; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.ppoly = "compact"; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) { s.kit_seed += 1; }));
  EXPECT_TRUE(differs([](runner::RendezvousSpec& s) {
    s.record_schedule = true;
  }));
}

TEST(Spec, EverySglFieldIsSemantic) {
  const runner::Fingerprint base = sgl_spec().fingerprint();
  const auto differs = [&](auto mutate) {
    runner::ExperimentSpec spec = sgl_spec();
    mutate(std::get<runner::SglSpec>(spec.scenario));
    return spec.fingerprint() != base;
  };
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.graph = "ring:6"; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.labels = {3, 8}; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.starts = {0, 2}; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.budget += 1; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.seed += 1; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.ppoly = "standard"; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.kit_seed += 1; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) { s.robust_phase3 = false; }));
  EXPECT_TRUE(differs([](runner::SglSpec& s) {
    SglAgentSpec agent;
    agent.label = 3;
    s.team = {agent, agent};
  }));
}

TEST(Spec, EverySearchFieldIsSemantic) {
  const runner::Fingerprint base = search_spec().fingerprint();
  const auto differs = [&](auto mutate) {
    runner::ExperimentSpec spec = search_spec();
    mutate(std::get<runner::SearchSpec>(spec.scenario));
    return spec.fingerprint() != base;
  };
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.graph = "ring:13"; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.objective = "pi-margin"; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.optimizer = "anneal"; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.labels = {5, 13}; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.starts = {0, 5}; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.budget += 1; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.evaluations += 1; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.genome_len += 1; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.seed += 1; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.ppoly = "compact"; }));
  EXPECT_TRUE(differs([](runner::SearchSpec& s) { s.kit_seed += 1; }));
  // The three kinds can never collide: the canonical form leads with kind.
  EXPECT_NE(search_spec().fingerprint(), rv_spec().fingerprint());
  EXPECT_NE(search_spec().fingerprint(), sgl_spec().fingerprint());
}

TEST(Spec, TeamDetailsAreSemantic) {
  SglAgentSpec agent;
  agent.start = 1;
  agent.label = 9;
  agent.value = "payload";
  runner::SglSpec sgl;
  sgl.team = {agent, agent};
  const auto fp = [](const runner::SglSpec& s) {
    return runner::ExperimentSpec{.name = "", .scenario = s}.fingerprint();
  };
  const runner::Fingerprint base = fp(sgl);
  runner::SglSpec changed = sgl;
  changed.team[1].value = "other payload";
  EXPECT_NE(fp(changed), base);
  changed = sgl;
  changed.team[1].initially_awake = false;
  EXPECT_NE(fp(changed), base);
  changed = sgl;
  changed.team[1].wake_after_units = 100;
  EXPECT_NE(fp(changed), base);
}

TEST(Spec, EscapingPreventsFieldForgery) {
  // A payload containing separators / newlines must not be able to fake
  // canonical-form structure: two different teams, same rendered bytes
  // would be a cache-poisoning bug.
  SglAgentSpec a1;
  a1.label = 1;
  a1.value = "x:1\nteam.1=0:2:y:1:0";
  SglAgentSpec a2;
  a2.label = 2;
  runner::SglSpec forged;
  forged.team = {a1, a2};
  runner::SglSpec honest;
  honest.team = {a1, a2};
  honest.team[0].value = "x";
  EXPECT_NE(
      (runner::ExperimentSpec{.name = "", .scenario = forged}.canonical()),
      (runner::ExperimentSpec{.name = "", .scenario = honest}.canonical()));
  // The canonical form stays one-line-per-field even with hostile values.
  const std::string canon =
      runner::ExperimentSpec{.name = "", .scenario = forged}.canonical();
  EXPECT_EQ(canon.find("\nteam.1=0:2:y"), std::string::npos);
}

TEST(Spec, GoldenFingerprints) {
  // Release-stability pins: these exact fingerprints are on-disk cache
  // keys. If this test fails, the canonical form or the hash changed —
  // that is a breaking change requiring a spec-version bump (see
  // runner/spec.h) and a release note, NOT a test update.
  EXPECT_EQ(rv_spec().fingerprint().hex(), "2ffaf27c99f70946da3b6a3a7fff8f3f");
  EXPECT_EQ(sgl_spec().fingerprint().hex(), "d93edc0515d6d870a8e0a040e630704a");
  runner::ExperimentSpec full = rv_spec();
  auto& rv = std::get<runner::RendezvousSpec>(full.scenario);
  rv.graph = "grid:3x4@77";
  rv.adversary = "stall:1:2000";
  rv.algo = runner::RouteAlgo::Baseline;
  rv.starts = {0, 11};
  rv.budget = 123'456'789;
  rv.seed = 0xdeadbeef;
  rv.ppoly = "standard";
  rv.kit_seed = 0x5eed0002;
  rv.record_schedule = true;
  EXPECT_EQ(full.fingerprint().hex(), "3dad2545396e7b05ed1b8444a3af377c");
  // The search kind's pin (placeholder recomputed once at introduction —
  // stable from then on, same contract as the two above).
  EXPECT_EQ(search_spec().fingerprint().hex(),
            "4e934bfb4a1b8ec575a04ea7b5406962");
}

TEST(Spec, CanonicalFormParsesBackToTheSameFingerprint) {
  // spec_from_canonical is the daemon's only validation path for every
  // kind: the parse of a canonical form must re-render to the same bytes.
  runner::ExperimentSpec full_rv = rv_spec();
  auto& rv = std::get<runner::RendezvousSpec>(full_rv.scenario);
  rv.graph = "grid:3x4@77";
  rv.algo = runner::RouteAlgo::Baseline;
  rv.starts = {0, 11};
  rv.record_schedule = true;

  SglAgentSpec awake;
  awake.start = 2;
  awake.label = 9;
  awake.value = "a:b,c%d\ne";
  SglAgentSpec dormant;
  dormant.start = 4;
  dormant.label = 3;
  dormant.value = "";
  dormant.initially_awake = false;
  dormant.wake_after_units = 1'000;
  runner::SglSpec team;
  team.graph = "ring:6";
  team.team = {awake, dormant};
  team.robust_phase3 = false;
  const runner::ExperimentSpec sgl_team{.name = "", .scenario = team};

  for (const runner::ExperimentSpec& spec :
       {rv_spec(), full_rv, sgl_spec(), sgl_team, search_spec()}) {
    const auto parsed = runner::spec_from_canonical(spec.canonical());
    ASSERT_TRUE(parsed.has_value()) << spec.canonical();
    EXPECT_EQ(parsed->kind(), spec.kind());
    EXPECT_EQ(parsed->canonical(), spec.canonical());
    EXPECT_EQ(parsed->fingerprint(), spec.fingerprint());
  }
  const auto parsed_team = runner::spec_from_canonical(sgl_team.canonical());
  ASSERT_TRUE(parsed_team.has_value());
  ASSERT_EQ(parsed_team->sgl()->team.size(), 2u);
  EXPECT_EQ(parsed_team->sgl()->team[0].value, "a:b,c%d\ne");
  EXPECT_FALSE(parsed_team->sgl()->team[1].initially_awake);
  EXPECT_EQ(parsed_team->sgl()->team[1].wake_after_units, 1'000u);
}

TEST(Spec, DisplayMatchesLegacyFormat) {
  EXPECT_EQ(rv_spec().display(), "ring:6 fair L5/L12");
  runner::ExperimentSpec named = rv_spec();
  named.name = "my cell";
  EXPECT_EQ(named.display(), "my cell");
  EXPECT_EQ(sgl_spec().display(), "ring:5 L3/L7");
  EXPECT_EQ(search_spec().display(), "ring:12 rv-cost/hill L5/L12");
}

}  // namespace
}  // namespace asyncrv
