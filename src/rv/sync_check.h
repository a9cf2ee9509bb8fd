// Empirical verification of the synchronization properties behind
// Theorem 3.1 (Lemmas 3.2-3.6).
//
// The proof's engine is an interlock: unless the agents have already met,
// whenever one agent completes certain milestones of its route (fences,
// pieces, atoms, borders), the other agent must have completed related
// milestones — each agent "pushes" the other forward. These properties are
// conditional on *no meeting yet*, so they cannot be observed on a full
// run (the meeting happens first); instead we run the two instrumented
// routes under an adversary and check the interlocks on every prefix up to
// the meeting:
//
//  * Lemma 3.2 shape: when one agent completes its (n+l+i)-th fence, the
//    other has completed its (i+1)-th piece.
//  * Monotone push: neither agent can be more than (n+l) fences ahead of
//    the other's piece count at any pre-meeting instant.
//
// A violation would falsify the cost analysis; the checker is wired into
// tests (sync_check_test.cc) and the E6 harness.
#pragma once

#include <cstdint>
#include <string>

#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"

namespace asyncrv {

struct SyncCheckResult {
  bool met = false;
  bool interlock_held = true;       ///< Lemma 3.2-shape condition on every prefix
  std::string violation;            ///< description of the first violation
  std::uint64_t fences_a = 0;       ///< milestones at meeting time
  std::uint64_t fences_b = 0;
  std::uint64_t pieces_a = 0;
  std::uint64_t pieces_b = 0;
  std::uint64_t cost = 0;
  std::uint64_t max_fence_lead = 0; ///< max over time of |fences_x - pieces_y|
};

/// Runs the two instrumented RV routes under `adv`, checking the interlock
/// after every simulation step until the meeting (or the budget).
SyncCheckResult run_sync_check(const Graph& g, const TrajKit& kit, Node sa,
                               std::uint64_t la, Node sb, std::uint64_t lb,
                               Adversary& adv, std::uint64_t budget);

}  // namespace asyncrv
