// Experiment E10 — the faithful worst-case bound Π(n, m) of Theorem 3.1.
//
// Prints the log10 table of Π over (n, m), the measured worst costs from
// the adversary battery, and the calibrated executable bound Π̂ sitting
// between them. This is the quantitative justification for the
// substitution documented in DESIGN.md §2.2. Exits 1, printing
// "VERIFICATION FAILED", when a battery run misses its budget or Pi-hat
// falls below a measured worst cost.
#include <iomanip>
#include <iostream>

#include "runner/sink.h"
#include "graph/builders.h"
#include "rv/pi_bound.h"
#include "traj/lengths_approx.h"
#include "rv/rv_route.h"
#include "sim/adversary.h"
#include "sim/engine.h"

int main() {
  using namespace asyncrv;
  runner::banner("E10 (bench_pi_bound)", "Theorem 3.1: the bound Pi(n, m)",
                "faithful Pi (log10) vs calibrated Pi-hat vs measured worst");

  const TrajKit kit(PPoly::tiny(), 0x5eed0001);
  const CalibratedPi pi_hat;

  std::cout << "log10 Pi(n, m) (tiny profile):\n";
  std::cout << std::setw(6) << "n\\m";
  for (std::uint64_t m = 1; m <= 5; ++m) std::cout << std::setw(10) << m;
  std::cout << "\n";
  for (std::uint64_t n = 2; n <= 10; n += 2) {
    std::cout << std::setw(6) << n;
    for (std::uint64_t m = 1; m <= 5; ++m) {
      std::cout << std::setw(10) << std::fixed << std::setprecision(1)
                << pi_bound_log10_approx(kit.uxs().p(), n, m);
    }
    std::cout << "\n";
  }

  std::cout << "\ncalibration check on ring(n), labels (5, 27), m = 3:\n";
  std::cout << std::setw(6) << "n" << std::setw(8) << "met" << std::setw(16)
            << "worst measured" << std::setw(14) << "Pi-hat" << std::setw(12)
            << "margin\n";
  // A run that misses its budget is a failure, not a skipped sample: it
  // would otherwise widen the printed margin.
  bool verified = true;
  for (Node n : {Node{4}, Node{6}, Node{8}}) {
    const Graph g = make_ring(n);
    std::uint64_t worst = 0, met = 0, runs = 0;
    for (auto& adv : adversary_battery(0xE10)) {
      sim::SimEngine engine(g, sim::MeetingPolicy::Halt);
      engine.add_agent({sim::make_walker_route(
                            g, 0, [&](Walker& w) { return rv_route(w, kit, 5, nullptr); }),
                        0});
      engine.add_agent({sim::make_walker_route(
                            g, n / 2,
                            [&](Walker& w) { return rv_route(w, kit, 27, nullptr); }),
                        n / 2});
      const RendezvousResult res = sim::run_rendezvous(engine, *adv, 40'000'000);
      ++runs;
      if (!res.met) continue;
      ++met;
      if (res.cost() > worst) worst = res.cost();
    }
    const std::uint64_t hat = pi_hat(n, 3);
    verified = verified && met == runs && worst > 0 && hat >= worst;
    std::cout << std::setw(6) << n << std::setw(8)
              << (std::to_string(met) + "/" + std::to_string(runs))
              << std::setw(16) << worst << std::setw(14) << hat
              << std::setw(11) << (worst > 0 ? hat / worst : 0) << "x\n";
  }
  if (!verified) {
    std::cout << "\nVERIFICATION FAILED — a run missed its 40M budget or "
                 "Pi-hat fell below a measured cost.\n";
    return 1;
  }
  std::cout << "\nPi-hat exceeds every measured worst cost by a wide margin "
               "while the faithful Pi is astronomically larger — the "
               "calibrated bound preserves the stopping-rule role at "
               "executable scale.\n";
  return 0;
}
