// Structure of the RV-asynch-poly route. The schedule (walk-free view) is
// checked exhaustively against the pseudocode of Section 3.1; short walked
// prefixes confirm that the route generator really executes the schedule.
#include "rv/rv_route.h"

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "rv/label.h"

namespace asyncrv {
namespace {

PPoly micro() { return PPoly{0, 0, 2, 2}; }

TEST(RvSchedule, MatchesPseudocodeForAnyLabel) {
  // For every label and piece k: min(k, s) segments, each followed by a
  // border except the last, which is followed by the fence Ω(k); segment i
  // uses B(2k) for bit 1 and A(4k) for bit 0.
  for (std::uint64_t label : {1ULL, 2ULL, 4ULL, 9ULL, 21ULL, 1000ULL}) {
    const auto bits = modified_label(label);
    const std::uint64_t s = bits.size();
    const std::uint64_t max_piece = s + 3;
    const auto sched = rv_schedule(label, max_piece);
    std::size_t idx = 0;
    for (std::uint64_t k = 1; k <= max_piece; ++k) {
      const std::uint64_t lim = k < s ? k : s;
      for (std::uint64_t i = 1; i <= lim; ++i) {
        ASSERT_LT(idx, sched.size());
        const RvElement& seg = sched[idx++];
        EXPECT_EQ(seg.part, RvPart::Segment) << "label " << label;
        EXPECT_EQ(seg.piece_k, k);
        EXPECT_EQ(seg.segment_i, i);
        EXPECT_EQ(seg.bit, bits[i - 1]);
        EXPECT_EQ(seg.traj_param, bits[i - 1] == 1 ? 2 * k : 4 * k);
        ASSERT_LT(idx, sched.size());
        const RvElement& sep = sched[idx++];
        EXPECT_EQ(sep.part, i < lim ? RvPart::Border : RvPart::Fence);
        EXPECT_EQ(sep.traj_param, k);
      }
    }
    EXPECT_EQ(idx, sched.size()) << "no trailing elements";
  }
}

TEST(RvSchedule, OneFencePerPiece) {
  const auto sched = rv_schedule(9, 12);
  std::uint64_t fences = 0, borders = 0, segments = 0;
  for (const RvElement& e : sched) {
    switch (e.part) {
      case RvPart::Fence: ++fences; break;
      case RvPart::Border: ++borders; break;
      case RvPart::Segment: ++segments; break;
    }
  }
  EXPECT_EQ(fences, 12u);
  EXPECT_EQ(segments, fences + borders) << "every segment is followed by exactly one separator";
}

TEST(RvSchedule, PieceSegmentCountSaturatesAtLabelLength) {
  const std::uint64_t label = 2;  // |M(2)| = 6
  const auto sched = rv_schedule(label, 10);
  std::uint64_t segs_in_piece_10 = 0;
  for (const RvElement& e : sched) {
    if (e.piece_k == 10 && e.part == RvPart::Segment) ++segs_in_piece_10;
  }
  EXPECT_EQ(segs_in_piece_10, modified_label(label).size());
}

TEST(RvSchedule, BitZeroSelectsA) {
  // M(2) = 110001: bit 3 is 0, so piece 3's third segment must be A(12).
  const auto sched = rv_schedule(2, 3);
  bool found = false;
  for (const RvElement& e : sched) {
    if (e.piece_k == 3 && e.segment_i == 3 && e.part == RvPart::Segment) {
      EXPECT_EQ(e.bit, 0);
      EXPECT_EQ(e.traj_param, 12u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RvSchedule, DivergesExactlyAtFirstDifferingBit) {
  // The schedules of two labels agree on every element before the first
  // differing bit position and differ at that segment.
  for (auto [la, lb] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {2, 3}, {8, 9}, {5, 21}, {1, 2}}) {
    const std::size_t lambda = first_diff_position(la, lb);
    const auto sa = rv_schedule(la, 2 * lambda + 2);
    const auto sb = rv_schedule(lb, 2 * lambda + 2);
    const std::size_t lim = std::min(sa.size(), sb.size());
    bool diverged = false;
    for (std::size_t i = 0; i < lim && !diverged; ++i) {
      if (sa[i].part != sb[i].part || sa[i].traj_param != sb[i].traj_param) {
        diverged = true;
        EXPECT_EQ(sa[i].part, RvPart::Segment);
        EXPECT_EQ(sa[i].segment_i, lambda)
            << "labels " << la << "," << lb << ": first structural divergence "
            << "must happen at the first differing bit";
      }
    }
    EXPECT_TRUE(diverged);
  }
}

TEST(RvRoute, FirstPieceStructureForOneBitLabels) {
  // Label 1 -> M = 1101 (s = 4). Piece k=1 processes only bit 1 (=1):
  // segment B(2)^2 then fence Ω(1).
  TrajKit kit(micro(), 0x21);
  Graph g = make_ring(4);
  Walker w(g, 0);
  RvProgress prog;
  auto route = rv_route(w, kit, 1, &prog);
  const LengthCalculus& c = kit.lengths();

  const std::uint64_t seg_len = (SatU128{2} * c.B(2)).to_u64_clamped();
  for (std::uint64_t i = 0; i < seg_len; ++i) {
    ASSERT_TRUE(route.next());
    EXPECT_EQ(prog.piece_k, 1u);
    EXPECT_EQ(prog.segment_i, 1u);
    EXPECT_EQ(prog.part, RvPart::Segment);
  }
  // Next move starts the fence.
  ASSERT_TRUE(route.next());
  EXPECT_EQ(prog.part, RvPart::Fence);
  EXPECT_EQ(prog.piece_k, 1u);
}

TEST(RvRoute, SegmentWalkEqualsBTrajectory) {
  // The first segment of label 1's route must be exactly B(2) followed by
  // B(2) again (the two atoms), move for move.
  TrajKit kit(micro(), 0x22);
  Graph g = make_path(3);
  Walker wb(g, 0);
  std::vector<Move> b;
  {
    auto gb = follow_B(wb, kit, 2);
    while (gb.next()) b.push_back(gb.value());
  }
  Walker wr(g, 0);
  RvProgress prog;
  auto route = rv_route(wr, kit, 1, &prog);
  for (int atom = 0; atom < 2; ++atom) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_TRUE(route.next());
      EXPECT_EQ(route.value().port_out, b[i].port_out)
          << "atom " << atom << " move " << i;
      EXPECT_EQ(prog.atom, atom);
    }
  }
}

TEST(RvRoute, StaysAnchoredAtStart) {
  // After the segment, and after each X(1) repetition inside the fence, the
  // agent is back at its starting node.
  TrajKit kit(micro(), 0x24);
  Graph g = make_complete(4);
  Walker w(g, 2);
  RvProgress prog;
  auto route = rv_route(w, kit, 3, &prog);
  const LengthCalculus& c = kit.lengths();
  const std::uint64_t seg = (SatU128{2} * c.B(2)).to_u64_clamped();
  for (std::uint64_t i = 0; i < seg; ++i) ASSERT_TRUE(route.next());
  EXPECT_EQ(w.node(), 2u) << "segment ends at anchor";
  const std::uint64_t x1 = c.X(1).to_u64_clamped();
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t i = 0; i < x1; ++i) ASSERT_TRUE(route.next());
    EXPECT_EQ(w.node(), 2u) << "fence X-repetition " << rep << " ends at anchor";
    EXPECT_EQ(prog.part, RvPart::Fence);
  }
}

TEST(RvRoute, CommonPrefixForLabelsSharingBits) {
  // Labels 2 and 3 share bits 1-2 of their modified labels; their walked
  // routes must coincide for a long prefix (well beyond one atom).
  TrajKit kit(micro(), 0x25);
  Graph g = make_ring(5);
  Walker w2(g, 0), w3(g, 0);
  auto r2 = rv_route(w2, kit, 2, nullptr);
  auto r3 = rv_route(w3, kit, 3, nullptr);
  const std::uint64_t prefix =
      (SatU128{2} * kit.lengths().B(2)).to_u64_clamped() + 50'000;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    ASSERT_TRUE(r2.next());
    ASSERT_TRUE(r3.next());
    ASSERT_EQ(r2.value().port_out, r3.value().port_out) << "move " << i;
  }
}

TEST(RvRoute, ProgressMoveCounter) {
  TrajKit kit(micro(), 0x26);
  Graph g = make_path(4);
  Walker w(g, 1);
  RvProgress prog;
  auto route = rv_route(w, kit, 1, &prog);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(route.next());
  EXPECT_EQ(w.total_moves(), 1000u);
}

}  // namespace
}  // namespace asyncrv
