// Algorithm RV-asynch-poly (Section 3.1) — the paper's main contribution.
//
// The route of an agent with label L is an infinite concatenation of
// *pieces* separated by *fences*:
//
//   for k = 1, 2, 3, ...:
//     for i = 1 .. min(k, s):        (s = |M(L)|, the modified label)
//       segment S_i(k):  B(2k, v)^2  if bit i of M(L) is 1
//                        A(4k, v)^2  if it is 0
//       then border K(k, v) if i < min(k, s), else fence Ω(k, v)
//
// The generator never finishes by itself; the simulation stops pulling when
// the agents meet. RvProgress (optional) exposes where in the structure the
// route currently is, which the structural tests and the synchronization
// experiments use.
#pragma once

#include <cstdint>

#include "traj/traj.h"

namespace asyncrv {

/// Which structural element of the route is being walked.
enum class RvPart { Segment, Border, Fence };

/// Live instrumentation of an RV route. All counters refer to the element
/// whose moves are currently being yielded.
struct RvProgress {
  std::uint64_t piece_k = 1;        ///< current piece number (k in the pseudocode)
  std::uint64_t segment_i = 1;      ///< current bit index within the piece
  RvPart part = RvPart::Segment;
  int atom = 0;                     ///< 0 or 1: which atom of the segment
  std::uint64_t fences_completed = 0;
  std::uint64_t pieces_completed = 0;
};

/// One structural element of the RV route (the walk-free view).
struct RvElement {
  RvPart part = RvPart::Segment;
  std::uint64_t piece_k = 0;   ///< piece number
  std::uint64_t segment_i = 0; ///< bit index within the piece
  int bit = -1;                ///< the processed bit (segments only)
  std::uint64_t traj_param = 0;  ///< parameter of the trajectory:
                                 ///< B(2k) / A(4k) for segments, k for K/Ω
};

/// The element sequence of the route for pieces 1..max_piece — the exact
/// structure the pseudocode of Section 3.1 prescribes, without walking a
/// single edge. rv_route() consumes this schedule, so testing it tests the
/// route's dispatch logic.
std::vector<RvElement> rv_schedule(std::uint64_t label, std::uint64_t max_piece);

/// The route of Algorithm RV-asynch-poly for the given (positive) label,
/// starting at the walker's current node. `progress` may be null.
Generator<Move> rv_route(Walker& w, const TrajKit& kit, std::uint64_t label,
                         RvProgress* progress);

}  // namespace asyncrv
