// Dual-rail completion detection (the heart of Design 1).
//
// For an n-bit dual-rail bundle, bit i is *valid* when exactly one of
// (t_i, f_i) is high and *null* when both are low. The detector's output
// rises when all bits are valid and falls when all are null — built
// structurally as OR gates per bit feeding a C-element tree, so its
// latency and energy overhead (the price of power-proportionality the
// paper discusses around Fig. 2) are measured, not assumed.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/gate.hpp"

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
  /// `max_fanin` bounds each C-element of the combining tree (real
  /// libraries stop at 3-4 inputs; deeper trees add latency).
  CompletionDetector(Context& ctx, std::string name,
                     std::vector<DualRailWire> bits, std::size_t max_fanin = 4);

  /// High = all bits valid; low = all bits null.
  sim::Wire& done() { return *done_; }

  std::size_t bit_count() const { return valids_.size(); }
  std::size_t tree_depth() const { return depth_; }

  /// Record the detector's internal structure (per-bit OR gates, the
  /// C-element reduction tree, internal wires, edges) into `c`'s
  /// connectivity inventory so the static linter and timing analyzer see
  /// the completion-detection path instead of a blank spot.
  void describe_into(netlist::Circuit& c) const;

 private:
  std::vector<std::unique_ptr<sim::Wire>> wires_;
  std::vector<std::unique_ptr<Gate>> gates_;
  std::vector<sim::Wire*> valids_;
  sim::Wire* done_ = nullptr;
  std::size_t depth_ = 0;
  /// Structure captured at build time for describe_into: edges as name
  /// pairs, elements as (name, is_c_element), timing arcs as
  /// (from, via, to, load-in-c_inv-units).
  struct ArcRec {
    std::string from;
    std::string via;
    std::string to;
    double load;
  };
  std::vector<std::pair<std::string, std::string>> described_edges_;
  std::vector<std::pair<std::string, bool>> described_elems_;
  std::vector<ArcRec> described_arcs_;
};

}  // namespace emc::gates
