// Structural tests of the trajectory algebra (Definitions 3.1-3.8): exact
// lengths match the calculus, reversals really retrace, every composite
// trajectory returns to its anchor node, and repetition-based trajectories
// (B, K, Ω) repeat the identical base walk.
#include "traj/traj.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "graph/builders.h"
#include "graph/catalog.h"

namespace asyncrv {
namespace {

/// A deliberately minuscule P (P(k) = 2 for all k) so that even A and B can
/// be walked to completion. The algebra is independent of integrality.
PPoly micro() { return PPoly{0, 0, 2, 2}; }

std::vector<Move> collect(Generator<Move> g, std::uint64_t cap = ~std::uint64_t{0}) {
  std::vector<Move> out;
  while (out.size() < cap && g.next()) out.push_back(g.value());
  return out;
}

using MakeTraj =
    std::function<Generator<Move>(Walker&, const TrajKit&, std::uint64_t)>;

struct AlgebraCase {
  std::string name;
  MakeTraj make;
  std::function<SatU128(const LengthCalculus&, std::uint64_t)> length;
};

std::vector<AlgebraCase> algebra_cases() {
  return {
      {"R", follow_R, [](const LengthCalculus& c, std::uint64_t k) { return c.P(k); }},
      {"X", follow_X, [](const LengthCalculus& c, std::uint64_t k) { return c.X(k); }},
      {"Q", follow_Q, [](const LengthCalculus& c, std::uint64_t k) { return c.Q(k); }},
      {"Yprime", follow_Yprime,
       [](const LengthCalculus& c, std::uint64_t k) { return c.Yprime(k); }},
      {"Y", follow_Y, [](const LengthCalculus& c, std::uint64_t k) { return c.Y(k); }},
      {"Z", follow_Z, [](const LengthCalculus& c, std::uint64_t k) { return c.Z(k); }},
      {"Aprime", follow_Aprime,
       [](const LengthCalculus& c, std::uint64_t k) { return c.Aprime(k); }},
      {"A", follow_A, [](const LengthCalculus& c, std::uint64_t k) { return c.A(k); }},
      {"B", follow_B, [](const LengthCalculus& c, std::uint64_t k) { return c.B(k); }},
  };
}

class AlgebraLengthSuite : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(AlgebraLengthSuite, GeneratorLengthMatchesCalculus) {
  TrajKit kit(micro(), 0x11);
  for (const auto& [gname, g] :
       {NamedGraph{"ring4", make_ring(4)}, NamedGraph{"tree6", make_random_tree(6, 3)},
        NamedGraph{"k5", make_complete(5)}}) {
    for (std::uint64_t k = 1; k <= 3; ++k) {
      Walker w(g, 0);
      const auto moves = collect(GetParam().make(w, kit, k));
      EXPECT_EQ(SatU128{moves.size()}, GetParam().length(kit.lengths(), k))
          << GetParam().name << "(" << k << ") on " << gname;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algebra, AlgebraLengthSuite,
                         ::testing::ValuesIn(algebra_cases()),
                         [](const auto& info) { return info.param.name; });

class AnchorSuite : public ::testing::TestWithParam<AlgebraCase> {};

TEST_P(AnchorSuite, CompositeTrajectoriesReturnToAnchor) {
  if (GetParam().name == "R" || GetParam().name == "Yprime" ||
      GetParam().name == "Aprime") {
    GTEST_SKIP() << "one-way trajectories do not return to the anchor";
  }
  TrajKit kit(micro(), 0x12);
  Graph g = make_petersen();
  for (Node start : {Node{0}, Node{3}, Node{7}}) {
    Walker w(g, start);
    auto moves = collect(GetParam().make(w, kit, 2));
    ASSERT_FALSE(moves.empty());
    EXPECT_EQ(moves.back().to, start)
        << GetParam().name << " must end at its anchor node";
    EXPECT_EQ(w.node(), start);
  }
}

INSTANTIATE_TEST_SUITE_P(Algebra, AnchorSuite, ::testing::ValuesIn(algebra_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(Traj, RIsDeterministicPerStart) {
  TrajKit kit(PPoly::tiny(), 0x5eed);
  Graph g = make_random_connected(8, 4, 5);
  for (Node v = 0; v < g.size(); ++v) {
    Walker w1(g, v), w2(g, v);
    const auto a = collect(follow_R(w1, kit, 5));
    const auto b = collect(follow_R(w2, kit, 5));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].port_out, b[i].port_out);
      EXPECT_EQ(a[i].to, b[i].to);
    }
  }
}

TEST(Traj, XIsExactPalindrome) {
  TrajKit kit(PPoly::tiny(), 0x77);
  Graph g = make_grid(3, 3);
  Walker w(g, 4);
  const auto moves = collect(follow_X(w, kit, 4));
  const std::size_t half = moves.size() / 2;
  ASSERT_EQ(moves.size(), 2 * half);
  for (std::size_t i = 0; i < half; ++i) {
    const Move& fwd = moves[i];
    const Move& rev = moves[moves.size() - 1 - i];
    EXPECT_EQ(fwd.from, rev.to);
    EXPECT_EQ(fwd.to, rev.from);
    EXPECT_EQ(fwd.port_out, rev.port_in);
    EXPECT_EQ(fwd.port_in, rev.port_out);
  }
}

TEST(Traj, QDecomposesIntoX) {
  TrajKit kit(micro(), 0x13);
  Graph g = make_ring(5);
  const std::uint64_t k = 3;
  Walker wq(g, 1);
  const auto q = collect(follow_Q(wq, kit, k));
  std::vector<Move> concat;
  for (std::uint64_t i = 1; i <= k; ++i) {
    Walker wx(g, 1);
    for (const Move& m : collect(follow_X(wx, kit, i))) concat.push_back(m);
  }
  ASSERT_EQ(q.size(), concat.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i].from, concat[i].from);
    EXPECT_EQ(q[i].port_out, concat[i].port_out);
  }
}

TEST(Traj, YprimeTrunkMatchesR) {
  // Stripping the Q insertions from Y' must leave exactly R(k, v): the
  // trunk's decisions are insulated from the insertions.
  TrajKit kit(micro(), 0x14);
  Graph g = make_complete(4);
  const std::uint64_t k = 3;
  Walker wr(g, 2);
  const auto trunk = collect(follow_R(wr, kit, k));
  Walker wy(g, 2);
  const auto yp = collect(follow_Yprime(wy, kit, k));
  // Y' = Q (q_len) then alternating [1 trunk move][Q].
  const std::uint64_t q_len = kit.lengths().Q(k).to_u64_clamped();
  std::vector<Move> extracted;
  std::size_t idx = q_len;
  while (idx < yp.size()) {
    extracted.push_back(yp[idx]);
    idx += 1 + q_len;
  }
  ASSERT_EQ(extracted.size(), trunk.size());
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    EXPECT_EQ(extracted[i].from, trunk[i].from);
    EXPECT_EQ(extracted[i].to, trunk[i].to);
    EXPECT_EQ(extracted[i].port_out, trunk[i].port_out);
  }
}

TEST(Traj, BRepeatsIdenticalY) {
  TrajKit kit(micro(), 0x15);
  Graph g = make_ring(4);
  const std::uint64_t k = 1;
  Walker wy(g, 0);
  const auto y = collect(follow_Y(wy, kit, k));
  Walker wb(g, 0);
  const auto b_prefix = collect(follow_B(wb, kit, k), 3 * y.size());
  ASSERT_EQ(b_prefix.size(), 3 * y.size());
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(b_prefix[rep * y.size() + i].from, y[i].from);
      EXPECT_EQ(b_prefix[rep * y.size() + i].port_out, y[i].port_out);
    }
  }
}

TEST(Traj, KAndOmegaRepeatX) {
  TrajKit kit(micro(), 0x16);
  Graph g = make_path(3);
  Walker wx(g, 1);
  const auto x = collect(follow_X(wx, kit, 2));
  for (auto* fn : {&follow_K, &follow_Omega}) {
    Walker w(g, 1);
    const auto prefix = collect((*fn)(w, kit, 2), 4 * x.size());
    ASSERT_EQ(prefix.size(), 4 * x.size());
    for (std::size_t rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(prefix[rep * x.size() + i].port_out, x[i].port_out);
      }
    }
  }
}

/// Reference for B, K and Ω: regenerates the base for every repetition.
Generator<Move> regenerated(Walker& w, std::uint64_t reps,
                            std::function<Generator<Move>(Walker&)> base) {
  for (std::uint64_t r = 0; r < reps; ++r) {
    auto b = base(w);
    while (b.next()) co_yield b.value();
  }
}

/// What a route left behind: its moves, an outer trail's recording, the
/// walker's final node and move count.
struct Walked {
  std::vector<Move> moves;
  std::vector<std::uint16_t> outer;
  Node end = 0;
  std::uint64_t total = 0;
};

/// Pulls `count` moves of the route under an outer TrailScope.
Walked walk(const Graph& g, Node start,
            const std::function<Generator<Move>(Walker&)>& make,
            std::size_t count) {
  Walker w(g, start);
  Trail outer;
  Walked out;
  {
    TrailScope scope(w, outer);
    auto route = make(w);
    while (out.moves.size() < count && route.next()) {
      out.moves.push_back(route.value());
    }
  }
  out.outer = outer.entry_ports;
  out.end = w.node();
  out.total = w.total_moves();
  return out;
}

void expect_same_walk(const Walked& got, const Walked& want) {
  ASSERT_EQ(got.moves.size(), want.moves.size());
  for (std::size_t i = 0; i < want.moves.size(); ++i) {
    ASSERT_EQ(got.moves[i].from, want.moves[i].from) << "move " << i;
    ASSERT_EQ(got.moves[i].to, want.moves[i].to) << "move " << i;
    ASSERT_EQ(got.moves[i].port_out, want.moves[i].port_out) << "move " << i;
    ASSERT_EQ(got.moves[i].port_in, want.moves[i].port_in) << "move " << i;
  }
  EXPECT_EQ(got.outer, want.outer);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.total, want.total);
}

struct Repeated {
  const char* name;
  Generator<Move> (*route)(Walker&, const TrajKit&, std::uint64_t);
  Generator<Move> (*base)(Walker&, const TrajKit&, std::uint64_t);
  SatU128 (LengthCalculus::*base_len)(std::uint64_t) const;
};

const Repeated kRepeated[] = {
    {"B", follow_B, follow_Y, &LengthCalculus::Y},
    {"K", follow_K, follow_X, &LengthCalculus::X},
    {"Omega", follow_Omega, follow_X, &LengthCalculus::X},
};

TEST(Traj, ReplayedRepetitionsMatchRegenerationUnderOuterTrail) {
  TrajKit kit(PPoly::tiny(), 0x19);
  for (const auto& [gname, g] :
       {NamedGraph{"ring5", make_ring(5)}, NamedGraph{"petersen", make_petersen()}}) {
    for (const Repeated& t : kRepeated) {
      const std::uint64_t k = 2;
      const std::uint64_t period = (kit.lengths().*t.base_len)(k).to_u64_clamped();
      ASSERT_LE(period, kReplayCapPorts);  // the replaying branch
      const auto want = walk(g, 1, [&](Walker& w) {
        return regenerated(w, 4, [&](Walker& on) { return t.base(on, kit, k); });
      }, 3 * period + period / 2);
      const auto got = walk(g, 1, [&](Walker& w) { return t.route(w, kit, k); },
                            3 * period + period / 2);
      SCOPED_TRACE(std::string(t.name) + " on " + gname);
      expect_same_walk(got, want);
      EXPECT_EQ(got.outer.size(), got.moves.size());
    }
  }
}

TEST(Traj, BaseAboveReplayCapIsRegenerated) {
  TrajKit kit(PPoly::tiny(), 0x1a);
  const std::uint64_t k = 5;
  const std::uint64_t period = kit.lengths().Y(k).to_u64_clamped();
  ASSERT_GT(period, kReplayCapPorts);  // 79,374 ports
  Graph g = make_grid(2, 3);
  const auto want = walk(g, 0, [&](Walker& w) {
    return regenerated(w, 2, [&](Walker& on) { return follow_Y(on, kit, k); });
  }, 2 * period);
  const auto got =
      walk(g, 0, [&](Walker& w) { return follow_B(w, kit, k); }, 2 * period);
  expect_same_walk(got, want);
  EXPECT_EQ(got.end, 0u);
}

TEST(Traj, TrailRecordsEntryPortsAndReverses) {
  Graph g = make_grid(2, 3);
  TrajKit kit(PPoly::tiny(), 0x17);
  Walker w(g, 0);
  Trail t;
  std::vector<Move> fwd;
  {
    TrailScope scope(w, t);
    auto r = follow_R(w, kit, 4);
    while (r.next()) fwd.push_back(r.value());
  }
  ASSERT_EQ(t.size(), fwd.size());
  auto rev = follow_reverse(w, t);
  std::vector<Move> back;
  while (rev.next()) back.push_back(rev.value());
  ASSERT_EQ(back.size(), fwd.size());
  EXPECT_EQ(w.node(), 0u);
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    const Move& f = fwd[fwd.size() - 1 - i];
    EXPECT_EQ(back[i].from, f.to);
    EXPECT_EQ(back[i].to, f.from);
  }
}

/// Y(3, v) spliced one level further down, as rv_route splices B and B's
/// replay loop splices Y.
Generator<Move> spliced_Y(Walker& w, const TrajKit& kit) {
  co_yield follow_Y(w, kit, 3);
}

TEST(Traj, AbruptGeneratorDestructionUnregistersTrails) {
  Graph g = make_ring(6);
  TrajKit kit(PPoly::tiny(), 0x18);
  const std::uint64_t y_len = kit.lengths().Y(3).to_u64_clamped();
  // Stop inside Y' (Y's trail and an X's trail registered, six frames
  // deep), at its last move, and inside the reverse Y̅'.
  for (const std::uint64_t pulls : {std::uint64_t{2}, std::uint64_t{57},
                                    y_len / 2, y_len / 2 + 1, y_len - 1}) {
    for (const bool outer : {false, true}) {
      SCOPED_TRACE(std::to_string(pulls) + (outer ? " spliced" : " bare"));
      Walker w(g, 0);
      {
        auto y = outer ? spliced_Y(w, kit) : follow_Y(w, kit, 3);
        for (std::uint64_t i = 0; i < pulls; ++i) ASSERT_TRUE(y.next());
        // Destroyed mid-flight here.
      }
      // The walker must be clean: a fresh trajectory registers its own
      // trail and the old ones must not dangle (take() would write
      // through them).
      Trail t;
      {
        TrailScope scope(w, t);
        w.take(0);
      }
      EXPECT_EQ(t.size(), 1u);
      EXPECT_EQ(w.total_moves(), pulls + 1);
    }
  }
}

TEST(Traj, MoveCountTracksWalker) {
  Graph g = make_star(5);
  TrajKit kit(PPoly::tiny(), 0x19);
  Walker w(g, 0);
  auto q = collect(follow_Q(w, kit, 2));
  EXPECT_EQ(w.total_moves(), q.size());
}

}  // namespace
}  // namespace asyncrv
