#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>

namespace emc::analysis {

std::vector<double> vdd_grid() {
  std::vector<double> grid;
  for (double v = 0.15; v <= 1.101; v += 0.05) grid.push_back(v);
  for (double anchor : {0.19, 0.4, 1.0}) {
    const bool present =
        std::any_of(grid.begin(), grid.end(), [anchor](double v) {
          return std::fabs(v - anchor) < 1e-9;
        });
    if (!present) grid.push_back(anchor);
  }
  std::sort(grid.begin(), grid.end());
  return grid;
}

}  // namespace emc::analysis
