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

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>

#include "runner/encoding.h"

namespace asyncrv {
namespace {

// --- reference renderer -----------------------------------------------------
//
// The canonical form as first written, through std::ostringstream. The
// production renderer builds the same bytes with appends; this copy stays
// as the differential oracle that proves it.

template <typename T>
void reference_list(std::ostream& os, const char* key,
                    const std::vector<T>& v) {
  os << key << '=';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << static_cast<std::uint64_t>(v[i]);
  }
  os << '\n';
}

void reference_payload(std::ostream& os, const runner::RendezvousSpec& s) {
  os << "kind=rendezvous\n";
  os << "graph=" << runner::percent_escape(s.graph) << '\n';
  os << "adversary=" << runner::percent_escape(s.adversary) << '\n';
  os << "algo="
     << (s.algo == runner::RouteAlgo::Baseline ? "baseline" : "rv-asynch-poly")
     << '\n';
  reference_list(os, "labels", s.labels);
  reference_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << runner::percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
  os << "record_schedule=" << (s.record_schedule ? 1 : 0) << '\n';
}

void reference_payload(std::ostream& os, const runner::SglSpec& s) {
  os << "kind=sgl\n";
  os << "graph=" << runner::percent_escape(s.graph) << '\n';
  reference_list(os, "labels", s.labels);
  reference_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << runner::percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
  os << "robust_phase3=" << (s.robust_phase3 ? 1 : 0) << '\n';
  os << "team=" << s.team.size() << '\n';
  for (std::size_t i = 0; i < s.team.size(); ++i) {
    const SglAgentSpec& a = s.team[i];
    os << "team." << i << '=' << a.start << ':' << a.label << ':'
       << runner::percent_escape(a.value) << ':' << (a.initially_awake ? 1 : 0)
       << ':' << a.wake_after_units << '\n';
  }
}

void reference_payload(std::ostream& os, const runner::SearchSpec& s) {
  os << "kind=search\n";
  os << "graph=" << runner::percent_escape(s.graph) << '\n';
  os << "objective=" << runner::percent_escape(s.objective) << '\n';
  os << "optimizer=" << runner::percent_escape(s.optimizer) << '\n';
  reference_list(os, "labels", s.labels);
  reference_list(os, "starts", s.starts);
  os << "budget=" << s.budget << '\n';
  os << "evaluations=" << s.evaluations << '\n';
  os << "genome_len=" << s.genome_len << '\n';
  os << "seed=" << s.seed << '\n';
  os << "ppoly=" << runner::percent_escape(s.ppoly) << '\n';
  os << "kit_seed=" << s.kit_seed << '\n';
}

std::string reference_canonical(const runner::ExperimentSpec& spec) {
  std::ostringstream os;
  os << "asyncrv.spec.v1\n";
  std::visit([&os](const auto& payload) { reference_payload(os, payload); },
             spec.scenario);
  return os.str();
}

/// FNV-1a-128 the textbook way: xor the byte, then one full 128-bit
/// multiply by the prime 2^88 + 0x13b.
runner::Fingerprint reference_fnv1a128(const std::string& bytes) {
  u128 h = (u128{0x6c62272e07bb0142ULL} << 64) | 0x62b821756295c58dULL;
  const u128 prime = (u128{0x0000000001000000ULL} << 64) | 0x13bULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= prime;
  }
  return {.hi = static_cast<std::uint64_t>(h >> 64),
          .lo = static_cast<std::uint64_t>(h)};
}

/// Seeded generator of specs of every kind, biased towards the values a
/// renderer gets wrong: separators and control bytes in strings, bytes
/// >= 0x80, the numerals 0 and UINT64_MAX, empty lists, explicit teams.
class SpecCorpus {
 public:
  explicit SpecCorpus(std::uint64_t seed) : rng_(seed) {}

  runner::ExperimentSpec next() {
    switch (pick(3)) {
      case 0: return {.name = text(), .scenario = rendezvous()};
      case 1: return {.name = text(), .scenario = sgl()};
      default: return {.name = text(), .scenario = search()};
    }
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  std::uint64_t number() {
    switch (pick(5)) {
      case 0: return 0;
      case 1: return std::numeric_limits<std::uint64_t>::max();
      case 2: return pick(10);
      case 3: return rng_() >> pick(64);
      default: return rng_();
    }
  }

  Node node() {
    return pick(4) == 0 ? std::numeric_limits<Node>::max()
                        : static_cast<Node>(number());
  }

  std::string text() {
    static const char hostile[] = {'%', ',', ':', '\n', '\r', '\0', '\x01',
                                   '\x1f', '\x7f', '\x80', '\xff', '=', ' '};
    std::string s;
    const std::uint64_t len = pick(4) == 0 ? 0 : pick(24);
    for (std::uint64_t i = 0; i < len; ++i) {
      if (pick(3) == 0) {
        s += hostile[pick(sizeof(hostile))];
      } else {
        s += static_cast<char>(pick(3) == 0 ? pick(256) : 'a' + pick(26));
      }
    }
    return s;
  }

  std::vector<std::uint64_t> numbers() {
    std::vector<std::uint64_t> v(pick(3) == 0 ? 0 : pick(6));
    for (std::uint64_t& x : v) x = number();
    return v;
  }

  std::vector<Node> nodes() {
    std::vector<Node> v(pick(3) == 0 ? 0 : pick(6));
    for (Node& x : v) x = node();
    return v;
  }

  runner::RendezvousSpec rendezvous() {
    runner::RendezvousSpec s;
    s.graph = text();
    s.adversary = text();
    s.algo = pick(2) ? runner::RouteAlgo::Baseline
                     : runner::RouteAlgo::RvAsynchPoly;
    s.labels = numbers();
    s.starts = nodes();
    s.budget = number();
    s.seed = number();
    s.ppoly = text();
    s.kit_seed = number();
    s.record_schedule = pick(2) != 0;
    return s;
  }

  runner::SglSpec sgl() {
    runner::SglSpec s;
    s.graph = text();
    s.labels = numbers();
    s.starts = nodes();
    s.budget = number();
    s.seed = number();
    s.ppoly = text();
    s.kit_seed = number();
    s.robust_phase3 = pick(2) != 0;
    s.team.resize(pick(2) ? 0 : pick(12));
    for (SglAgentSpec& a : s.team) {
      a.start = node();
      a.label = number();
      a.value = text();
      a.initially_awake = pick(2) != 0;
      a.wake_after_units = number();
    }
    return s;
  }

  runner::SearchSpec search() {
    runner::SearchSpec s;
    s.graph = text();
    s.objective = text();
    s.optimizer = text();
    s.labels = numbers();
    s.starts = nodes();
    s.budget = number();
    s.evaluations = number();
    s.genome_len = number();
    s.seed = number();
    s.ppoly = text();
    s.kit_seed = number();
    return s;
  }

  std::mt19937_64 rng_;
};

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

TEST(Fingerprint, MatchesTheFullWidthMultiplyOnRandomBytes) {
  std::mt19937_64 rng(0xf1f1);
  for (std::size_t len = 0; len <= 512; ++len) {
    for (int rep = 0; rep < 4; ++rep) {
      std::string bytes(len, '\0');
      for (char& c : bytes) c = static_cast<char>(rng());
      ASSERT_EQ(runner::fingerprint_bytes(bytes), reference_fnv1a128(bytes))
          << "length " << len;
    }
  }
}

TEST(Spec, CanonicalMatchesTheReferenceRendererOnASeededCorpus) {
  SpecCorpus corpus(20261020);
  int kinds[3] = {0, 0, 0};
  for (int i = 0; i < 20'000; ++i) {
    const runner::ExperimentSpec spec = corpus.next();
    ++kinds[static_cast<int>(spec.kind())];
    const std::string expected = reference_canonical(spec);
    ASSERT_EQ(spec.canonical(), expected) << "corpus spec " << i;
    ASSERT_EQ(spec.fingerprint(), reference_fnv1a128(expected));
    // The parser inverts every rendering, hostile strings included.
    const auto parsed = runner::spec_from_canonical(expected);
    ASSERT_TRUE(parsed.has_value()) << "corpus spec " << i;
    ASSERT_EQ(parsed->canonical(), expected);
  }
  for (const int n : kinds) EXPECT_GT(n, 6'000);
  // The fixed specs of this file render identically too.
  for (const runner::ExperimentSpec& spec :
       {rv_spec(), sgl_spec(), search_spec()}) {
    EXPECT_EQ(spec.canonical(), reference_canonical(spec));
  }
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
