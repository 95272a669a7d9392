// Dual-rail completion detection (the heart of Design 1).
//
// For an n-bit dual-rail bundle, bit i is *valid* when exactly one of
// (t_i, f_i) is high and *null* when both are low. The detector's output
// rises when all bits are valid and falls when all are null — built
// structurally as OR gates per bit feeding a C-element tree, so its
// latency and energy overhead (the price of power-proportionality the
// paper discusses around Fig. 2) are measured, not assumed.
#pragma once

#include <string>
#include <vector>

#include "sim/signal.hpp"

namespace emc::netlist {
class Circuit;
}

namespace emc::gates {

struct DualRailWire {
  sim::Wire* t;  ///< true rail
  sim::Wire* f;  ///< false rail
};

class CompletionDetector {
 public:
  /// Build the detector into `c` under `<local>`: per-bit OR gates
  /// `<local>.or<i>` onto `<local>.v<i>`, then the C-element tree. The
  /// circuit owns every gate and wire and records their edges and timing
  /// arcs. `max_fanin` bounds each C-element of the combining tree (real
  /// libraries stop at 3-4 inputs; deeper trees add latency).
  CompletionDetector(netlist::Circuit& c, const std::string& local,
                     const std::vector<DualRailWire>& bits,
                     std::size_t max_fanin = 4);

  /// High = all bits valid; low = all bits null.
  sim::Wire& done() { return *done_; }

  std::size_t bit_count() const { return bit_count_; }
  std::size_t tree_depth() const { return depth_; }

 private:
  sim::Wire* done_ = nullptr;
  std::size_t bit_count_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace emc::gates
