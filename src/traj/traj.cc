#include "traj/traj.h"

#include <vector>

namespace asyncrv {

Generator<Move> follow_R(Walker& w, const TrajKit& kit, std::uint64_t k) {
  RStepper stepper(kit.uxs());
  const std::uint64_t len = kit.uxs().length(k);
  for (std::uint64_t i = 0; i < len; ++i) {
    const Port p = stepper.next_port(w.degree());
    Move m = w.take(p);
    stepper.advance(m);
    co_yield m;
  }
}

Generator<Move> follow_reverse(Walker& w, const Trail& trail) {
  for (std::size_t i = trail.entry_ports.size(); i > 0; --i) {
    co_yield w.take(static_cast<Port>(trail.entry_ports[i - 1]));
  }
}

Generator<Move> follow_X(Walker& w, const TrajKit& kit, std::uint64_t k) {
  Trail trail;
  {
    TrailScope scope(w, trail);
    auto fwd = follow_R(w, kit, k);
    while (fwd.next()) co_yield fwd.value();
  }
  auto rev = follow_reverse(w, trail);
  while (rev.next()) co_yield rev.value();
}

Generator<Move> follow_Q(Walker& w, const TrajKit& kit, std::uint64_t k) {
  for (std::uint64_t i = 1; i <= k; ++i) {
    auto x = follow_X(w, kit, i);
    while (x.next()) co_yield x.value();
  }
}

Generator<Move> follow_Yprime(Walker& w, const TrajKit& kit, std::uint64_t k) {
  RStepper trunk(kit.uxs());
  const std::uint64_t len = kit.uxs().length(k);
  {
    auto q = follow_Q(w, kit, k);
    while (q.next()) co_yield q.value();
  }
  for (std::uint64_t i = 0; i < len; ++i) {
    const Port p = trunk.next_port(w.degree());
    Move m = w.take(p);
    trunk.advance(m);
    co_yield m;
    auto q = follow_Q(w, kit, k);
    while (q.next()) co_yield q.value();
  }
}

Generator<Move> follow_Y(Walker& w, const TrajKit& kit, std::uint64_t k) {
  Trail trail;
  {
    TrailScope scope(w, trail);
    auto fwd = follow_Yprime(w, kit, k);
    while (fwd.next()) co_yield fwd.value();
  }
  auto rev = follow_reverse(w, trail);
  while (rev.next()) co_yield rev.value();
}

Generator<Move> follow_Z(Walker& w, const TrajKit& kit, std::uint64_t k) {
  for (std::uint64_t i = 1; i <= k; ++i) {
    auto y = follow_Y(w, kit, i);
    while (y.next()) co_yield y.value();
  }
}

Generator<Move> follow_Aprime(Walker& w, const TrajKit& kit, std::uint64_t k) {
  RStepper trunk(kit.uxs());
  const std::uint64_t len = kit.uxs().length(k);
  {
    auto z = follow_Z(w, kit, k);
    while (z.next()) co_yield z.value();
  }
  for (std::uint64_t i = 0; i < len; ++i) {
    const Port p = trunk.next_port(w.degree());
    Move m = w.take(p);
    trunk.advance(m);
    co_yield m;
    auto z = follow_Z(w, kit, k);
    while (z.next()) co_yield z.value();
  }
}

Generator<Move> follow_A(Walker& w, const TrajKit& kit, std::uint64_t k) {
  Trail trail;
  {
    TrailScope scope(w, trail);
    auto fwd = follow_Aprime(w, kit, k);
    while (fwd.next()) co_yield fwd.value();
  }
  auto rev = follow_reverse(w, trail);
  while (rev.next()) co_yield rev.value();
}

namespace {

/// Shared shape of B, K and Ω: a closed base trajectory repeated `reps`
/// times. `reps` is saturating 128-bit: a saturated count simply behaves as
/// "practically infinite", which is faithful — such a route could never be
/// walked to completion anyway.
///
/// The base depends only on (graph, kit, k, start node) and returns to its
/// start, so every repetition takes the same exit ports. When the exact
/// base length `base_len` is at most kReplayCapPorts, the first repetition
/// is generated and its exit ports recorded; the others replay them through
/// Walker::take, which appends to registered trails and counts moves
/// exactly as regeneration does. Longer bases are regenerated each time.
/// Nobody else moves the walker while the route is suspended (SGL walks its
/// ESST detour on a walker of its own), so the recording is the period.
template <typename MakeBase>
Generator<Move> repeat_base(Walker& w, u128 reps, SatU128 base_len,
                            MakeBase make_base) {
  u128 done = 0;
  if (reps > 1 && !base_len.is_saturated() &&
      base_len.value() <= kReplayCapPorts) {
    [[maybe_unused]] const Node start = w.node();
    std::vector<Port> period;
    period.reserve(static_cast<std::size_t>(base_len.value()));
    {
      auto base = make_base(w);
      while (base.next()) {
        period.push_back(base.value().port_out);
        co_yield base.value();
      }
    }
    ASYNCRV_DCHECK(period.size() == base_len.value());
    for (done = 1; done < reps; ++done) {
      ASYNCRV_DCHECK(w.node() == start);
      for (const Port p : period) co_yield w.take(p);
    }
  }
  for (; done < reps; ++done) {
    auto base = make_base(w);
    while (base.next()) co_yield base.value();
  }
}

}  // namespace

Generator<Move> follow_B(Walker& w, const TrajKit& kit, std::uint64_t k) {
  return repeat_base(w, kit.lengths().b_reps(k).value(), kit.lengths().Y(k),
                     [&kit, k](Walker& on) { return follow_Y(on, kit, k); });
}

Generator<Move> follow_X_repeated(Walker& w, const TrajKit& kit,
                                  std::uint64_t k, u128 reps) {
  return repeat_base(w, reps, kit.lengths().X(k),
                     [&kit, k](Walker& on) { return follow_X(on, kit, k); });
}

Generator<Move> follow_K(Walker& w, const TrajKit& kit, std::uint64_t k) {
  return follow_X_repeated(w, kit, k, kit.lengths().k_reps(k).value());
}

Generator<Move> follow_Omega(Walker& w, const TrajKit& kit, std::uint64_t k) {
  return follow_X_repeated(w, kit, k, kit.lengths().omega_reps(k).value());
}

}  // namespace asyncrv
