// Constant-power harvester profile shared by the supply tests: every
// state delivers `watts` with no jitter and dwells far longer than any
// test runs, so harvested energy is power × time to one tick.
#pragma once

#include "supply/harvester.hpp"

namespace emc::test {

inline supply::HarvesterProfile steady_profile(double watts) {
  supply::HarvesterProfile p;
  p.power_w = {watts, watts, watts, watts};
  p.dwell_s = {1.0, 1.0, 1.0, 1.0};
  p.jitter = 0.0;
  return p;
}

}  // namespace emc::test
