#include "sim/time.hpp"

#include <cmath>

namespace emc::sim {

Time from_seconds(double seconds) {
  if (seconds <= 0.0) return 0;
  const double ticks = seconds * 1e15;
  if (ticks >= static_cast<double>(kTimeMax)) return kTimeMax;
  return static_cast<Time>(std::llround(ticks));
}

}  // namespace emc::sim
