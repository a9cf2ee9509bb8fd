#include "rv/sync_check.h"

#include <memory>
#include <sstream>

#include "rv/label.h"

namespace asyncrv {

SyncCheckResult run_sync_check(const Graph& g, const TrajKit& kit, Node sa,
                               std::uint64_t la, Node sb, std::uint64_t lb,
                               Adversary& adv, std::uint64_t budget) {
  auto prog_a = std::make_shared<RvProgress>();
  auto prog_b = std::make_shared<RvProgress>();
  auto route_a = sim::make_walker_route(g, sa, [&kit, la, prog_a](Walker& w) {
    return rv_route(w, kit, la, prog_a.get());
  });
  auto route_b = sim::make_walker_route(g, sb, [&kit, lb, prog_b](Walker& w) {
    return rv_route(w, kit, lb, prog_b.get());
  });
  sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
  engine.add_agent({std::move(route_a), sa});
  engine.add_agent({std::move(route_b), sb});

  const std::uint64_t n = g.size();
  const std::uint64_t l = 2 * static_cast<std::uint64_t>(std::min(
                                  label_length(la), label_length(lb))) +
                          2;
  // The Lemma 3.2 allowance: an agent may be at most n+l fences ahead of
  // the other's pieces. Our check uses the paper's offset exactly.
  const std::uint64_t allowance = n + l;

  SyncCheckResult res;
  std::uint64_t steps = 0;
  const std::uint64_t max_steps = 16 * budget + (1u << 20);
  while (!engine.met()) {
    if (engine.charged_traversals(0) + engine.charged_traversals(1) >= budget ||
        ++steps > max_steps) {
      break;
    }
    const AdvStep step = adv.next(engine);
    // SimEngine only DCHECKs the index; a bad adversary must fail loudly.
    ASYNCRV_CHECK(step.agent == 0 || step.agent == 1);
    engine.advance(step.agent, step.delta);
    // Interlock check (both directions): completing fence number
    // allowance + i implies the other completed piece i+1, i.e.
    // fences_x <= allowance + pieces_y (shifted by one piece).
    const std::uint64_t fa = prog_a->fences_completed;
    const std::uint64_t fb = prog_b->fences_completed;
    const std::uint64_t pa = prog_a->pieces_completed;
    const std::uint64_t pb = prog_b->pieces_completed;
    const std::uint64_t lead_a = fa > pb ? fa - pb : 0;
    const std::uint64_t lead_b = fb > pa ? fb - pa : 0;
    const std::uint64_t lead = lead_a > lead_b ? lead_a : lead_b;
    if (lead > res.max_fence_lead) res.max_fence_lead = lead;
    if (res.interlock_held && lead > allowance) {
      res.interlock_held = false;
      std::ostringstream os;
      os << "fence lead " << lead << " exceeds n+l = " << allowance
         << " (fences a/b = " << fa << "/" << fb << ", pieces a/b = " << pa
         << "/" << pb << ")";
      res.violation = os.str();
    }
  }
  res.met = engine.met();
  res.fences_a = prog_a->fences_completed;
  res.fences_b = prog_b->fences_completed;
  res.pieces_a = prog_a->pieces_completed;
  res.pieces_b = prog_b->pieces_completed;
  res.cost = engine.charged_traversals(0) + engine.charged_traversals(1);
  return res;
}

}  // namespace asyncrv
