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

/// Takes on `shadow`, which stands where they started, the moves that
/// `taken` recorded by entry port on another walker now standing at `end`.
void retake(Walker& shadow, const Trail& taken, Node end) {
  const Graph& g = shadow.graph();
  std::vector<Port> exits(taken.size());
  Node cur = end;
  for (std::size_t j = taken.size(); j > 0; --j) {
    const Graph::Half h = g.step(cur, static_cast<Port>(taken.entry_ports[j - 1]));
    exits[j - 1] = h.port_at_to;
    cur = h.to;
  }
  ASYNCRV_CHECK(cur == shadow.node());
  for (const Port p : exits) shadow.take(p);
}

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
///
/// A caller may move the walker while the route is suspended (SGL runs
/// ESST mid-route). Regeneration appends those moves to the base's own
/// open trails, which later backtrack them, so a touched repetition is no
/// longer the period. `spy` sees every such move: the touched repetition
/// is finished exactly as regeneration would, and later ones regenerate.
template <typename MakeBase>
Generator<Move> repeat_base(Walker& w, u128 reps, SatU128 base_len,
                            MakeBase make_base) {
  u128 done = 0;
  if (reps > 1 && !base_len.is_saturated() &&
      base_len.value() <= kReplayCapPorts) {
    const Node start = w.node();
    std::vector<Port> period;
    period.reserve(static_cast<std::size_t>(base_len.value()));
    bool untouched = true;
    Trail spy;
    TrailScope spy_scope(w, spy);
    {
      auto base = make_base(w);
      while (base.next()) {
        if (untouched) period.push_back(base.value().port_out);
        spy.entry_ports.clear();
        co_yield base.value();
        untouched = untouched && spy.empty();
      }
    }
    ASYNCRV_DCHECK(!untouched || period.size() == base_len.value());
    for (done = 1; untouched && done < reps; ++done) {
      ASYNCRV_DCHECK(w.node() == start);
      for (std::size_t i = 0; i < period.size(); ++i) {
        const Move m = w.take(period[i]);
        spy.entry_ports.clear();
        co_yield m;
        if (spy.empty()) continue;
        // Rebuild the regenerated base on a private walker up to this
        // point, hand it the caller's moves, and finish from it.
        untouched = false;
        Walker shadow(w.graph(), start);
        auto base = make_base(shadow);
        for (std::size_t j = 0; j <= i; ++j) {
          base.next();
          ASYNCRV_DCHECK(base.value().port_out == period[j]);
        }
        while (true) {
          retake(shadow, spy, w.node());
          if (!base.next()) break;
          const Move next = w.take(base.value().port_out);
          spy.entry_ports.clear();
          co_yield next;
        }
        break;
      }
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
