// The trajectory algebra of Section 3.1 (Definitions 3.1-3.8), implemented
// as lazy coroutines over a Walker.
//
// Every generator yields one Move (edge traversal) at a time and uses O(1)
// amortized work per step; reversible sub-trajectories record a Trail (2
// bytes per traversed edge) only for the part actually walked. Repetition
// counts inside B, K and Ω come from the exact LengthCalculus and are
// 128-bit — the generators are happy to represent routes that could never
// be walked to completion, because the adversary (simulator) only ever
// pulls a finite prefix.
#pragma once

#include <cstdint>

#include "explore/uxs.h"
#include "traj/gen.h"
#include "traj/lengths.h"
#include "traj/walker.h"

namespace asyncrv {

/// Bundles the exploration sequence with the (matching) length calculus.
/// All trajectory generators take a TrajKit; the kit must outlive them.
class TrajKit {
 public:
  explicit TrajKit(PPoly p = PPoly::standard(), std::uint64_t seed = 0x5eed0001)
      : uxs_(p, seed), calc_(p) {}
  explicit TrajKit(const Uxs& uxs) : uxs_(uxs), calc_(uxs.p()) {}

  const Uxs& uxs() const { return uxs_; }
  const LengthCalculus& lengths() const { return calc_; }

 private:
  Uxs uxs_;
  LengthCalculus calc_;
};

/// Port decisions of R(k, ·), insulated from interleaved sub-trajectories:
/// keeps its own entry-port state so that insertions (Q in Y', Z in A') and
/// other generators sharing the walker cannot perturb the trunk. Also used
/// directly by Procedure ESST, which interleaves R-walks with interrupts.
class RStepper {
 public:
  explicit RStepper(const Uxs& uxs) : uxs_(&uxs) {}

  /// The port to take for the next step from a node of degree `degree`.
  Port next_port(int degree) const {
    return static_cast<Port>(uxs_->exit_port(index_, entry_, degree));
  }

  /// Records the executed move and advances the sequence index.
  void advance(const Move& m) {
    entry_ = m.port_in;
    ++index_;
  }

 private:
  const Uxs* uxs_;
  std::uint64_t index_ = 0;
  int entry_ = 0;
};

/// R(k, v): the exploration trajectory of exactly P(k) traversals, starting
/// at the walker's current node with entry port treated as 0.
Generator<Move> follow_R(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Replays a recorded trail backwards (the reverse trajectory T̄).
/// The trail must outlive the generator and not change while replaying.
Generator<Move> follow_reverse(Walker& w, const Trail& trail);

/// X(k, v) = R(k, v) R̄(k, v)                               (Def. 3.1)
Generator<Move> follow_X(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Q(k, v) = X(1, v) X(2, v) ... X(k, v)                    (Def. 3.2)
Generator<Move> follow_Q(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Y'(k, v): trunk R(k, v) with Q(k, ·) inserted at every trunk node
/// (Def. 3.3). The trunk's port decisions are insulated from the
/// insertions: the i-th trunk step uses the entry port of the (i-1)-th
/// trunk step, exactly as if R(k, v) were followed alone.
Generator<Move> follow_Yprime(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Y(k, v) = Y'(k, v) Y̅'(k, v)                              (Def. 3.3)
Generator<Move> follow_Y(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Z(k, v) = Y(1, v) ... Y(k, v)                            (Def. 3.4)
Generator<Move> follow_Z(Walker& w, const TrajKit& kit, std::uint64_t k);

/// A'(k, v): trunk R(k, v) with Z(k, ·) inserted at every trunk node.
Generator<Move> follow_Aprime(Walker& w, const TrajKit& kit, std::uint64_t k);

/// A(k, v) = A'(k, v) A̅'(k, v)                              (Def. 3.5)
Generator<Move> follow_A(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Longest closed base walk (in exit ports) that B, K and Ω record once and
/// replay for their later repetitions; longer bases are regenerated each
/// time. Bounds the recording at 256 KiB (4-byte Port) per live repeated
/// route; at the default `tiny` profile the B(2) base Y(2, v) is 3,948
/// ports (15.8 KB).
inline constexpr std::uint64_t kReplayCapPorts = std::uint64_t{1} << 16;

/// B(k, v) = Y(k, v)^{2|A(4k)|}                             (Def. 3.6)
Generator<Move> follow_B(Walker& w, const TrajKit& kit, std::uint64_t k);

/// X(k, v)^reps: the closed walk X(k, v) repeated `reps` times. The shape
/// of K and Ω, and of the baseline route (rv/baseline.h).
Generator<Move> follow_X_repeated(Walker& w, const TrajKit& kit,
                                  std::uint64_t k, u128 reps);

/// K(k, v) = X(k, v)^{2(|B(4k)| + |A(8k)|)}                 (Def. 3.7)
Generator<Move> follow_K(Walker& w, const TrajKit& kit, std::uint64_t k);

/// Ω(k, v) = X(k, v)^{(2k-1)|K(k)|}                         (Def. 3.8)
Generator<Move> follow_Omega(Walker& w, const TrajKit& kit, std::uint64_t k);

}  // namespace asyncrv
