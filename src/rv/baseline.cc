#include "rv/baseline.h"

#include <cmath>

#include "util/check.h"

namespace asyncrv {

SatU128 baseline_reps(const LengthCalculus& calc, std::uint64_t known_n,
                      std::uint64_t label) {
  ASYNCRV_CHECK(label >= 1);
  const SatU128 base = SatU128{2} * calc.P(known_n) + SatU128{1};
  SatU128 acc{1};
  for (std::uint64_t i = 0; i < label; ++i) {
    acc *= base;
    if (acc.is_saturated()) break;
  }
  return acc;
}

SatU128 baseline_route_length(const LengthCalculus& calc, std::uint64_t known_n,
                              std::uint64_t label) {
  return baseline_reps(calc, known_n, label) * calc.X(known_n);
}

double baseline_route_length_log10(const LengthCalculus& calc,
                                   std::uint64_t known_n, std::uint64_t label) {
  ASYNCRV_CHECK(label >= 1);
  const double base = 2.0 * static_cast<double>(calc.P(known_n).to_u64_clamped()) + 1.0;
  return static_cast<double>(label) * std::log10(base) +
         std::log10(base - 1.0);
}

Generator<Move> baseline_route(Walker& w, const TrajKit& kit,
                               std::uint64_t known_n, std::uint64_t label) {
  return follow_X_repeated(w, kit, known_n,
                           baseline_reps(kit.lengths(), known_n, label).value());
}

}  // namespace asyncrv
