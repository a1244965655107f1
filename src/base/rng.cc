#include "src/base/rng.h"

#include <cmath>

namespace malt {

double Xoshiro256::NextGaussian() {
  // Box-Muller. Draw two uniforms; discard the second output (simplicity over
  // caching — gradient math dominates any generator cost in this codebase).
  // SkipGaussian (rng.h) consumes the same draws; change both together.
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586;
  return radius * std::cos(kTwoPi * u2);
}

}  // namespace malt
