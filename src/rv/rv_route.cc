#include "rv/rv_route.h"

#include <vector>

#include "rv/label.h"
#include "util/check.h"

namespace asyncrv {

namespace {

/// Elements of the k-th piece (its fence included) for a modified label.
std::vector<RvElement> piece_elements(std::uint64_t k, const std::vector<int>& bits) {
  const std::uint64_t s = bits.size();
  const std::uint64_t lim = k < s ? k : s;
  std::vector<RvElement> out;
  for (std::uint64_t i = 1; i <= lim; ++i) {
    const int bit = bits[i - 1];
    RvElement seg;
    seg.part = RvPart::Segment;
    seg.piece_k = k;
    seg.segment_i = i;
    seg.bit = bit;
    seg.traj_param = bit == 1 ? 2 * k : 4 * k;
    out.push_back(seg);
    RvElement sep;
    sep.piece_k = k;
    sep.segment_i = i;
    if (i < lim) {
      sep.part = RvPart::Border;
      sep.traj_param = k;
    } else {
      sep.part = RvPart::Fence;
      sep.traj_param = k;
    }
    out.push_back(sep);
  }
  return out;
}

}  // namespace

std::vector<RvElement> rv_schedule(std::uint64_t label, std::uint64_t max_piece) {
  const std::vector<int> bits = modified_label(label);
  std::vector<RvElement> out;
  for (std::uint64_t k = 1; k <= max_piece; ++k) {
    for (RvElement& e : piece_elements(k, bits)) out.push_back(e);
  }
  return out;
}

Generator<Move> rv_route(Walker& w, const TrajKit& kit, std::uint64_t label,
                         RvProgress* progress) {
  const std::vector<int> bits = modified_label(label);
  RvProgress local;
  RvProgress& prog = progress != nullptr ? *progress : local;

  for (std::uint64_t k = 1;; ++k) {
    prog.piece_k = k;
    for (const RvElement& e : piece_elements(k, bits)) {
      prog.segment_i = e.segment_i;
      prog.part = e.part;
      switch (e.part) {
        case RvPart::Segment:
          for (int atom = 0; atom < 2; ++atom) {
            prog.atom = atom;
            // Not `co_yield cond ? B : A`: GCC 12 frees the spliced frame
            // of a conditional co_yield operand twice.
            if (e.bit == 1) {
              co_yield follow_B(w, kit, e.traj_param);
            } else {
              co_yield follow_A(w, kit, e.traj_param);
            }
          }
          break;
        case RvPart::Border:
          co_yield follow_K(w, kit, e.traj_param);
          break;
        case RvPart::Fence:
          co_yield follow_Omega(w, kit, e.traj_param);
          ++prog.fences_completed;
          ++prog.pieces_completed;
          break;
      }
    }
  }
}

}  // namespace asyncrv
