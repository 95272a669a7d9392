// The Vdd sweep grid of the figure benches.
#pragma once

#include <vector>

namespace emc::analysis {

/// The Vdd grid used throughout the experiments: the paper's operating
/// range 0.15-1.1 V at 50 mV steps plus the anchor points (0.19, 0.4,
/// 1.0 V).
std::vector<double> vdd_grid();

}  // namespace emc::analysis
