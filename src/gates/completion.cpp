#include "gates/completion.hpp"

#include <algorithm>
#include <cassert>

#include "netlist/module.hpp"

namespace emc::gates {

CompletionDetector::CompletionDetector(netlist::Circuit& c,
                                       const std::string& local,
                                       const std::vector<DualRailWire>& bits,
                                       std::size_t max_fanin)
    : bit_count_(bits.size()) {
  assert(!bits.empty());
  assert(max_fanin >= 2);

  // Per-bit validity: valid_i = t_i OR f_i.
  std::vector<sim::Wire*> layer;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    sim::Wire& v = c.wire(local + ".v" + std::to_string(i), false);
    c.comb(local + ".or" + std::to_string(i), Op::kOr,
           std::vector<sim::Wire*>{bits[i].t, bits[i].f}, v);
    layer.push_back(&v);
  }

  // C-element reduction tree. Each C output rises when its whole subtree
  // is valid and falls when it is null, so the tree as a whole preserves
  // the detector contract.
  std::size_t level = 0;
  while (layer.size() > 1) {
    std::vector<sim::Wire*> next;
    for (std::size_t i = 0; i < layer.size(); i += max_fanin) {
      const std::size_t n = std::min(max_fanin, layer.size() - i);
      if (n == 1) {
        next.push_back(layer[i]);
        continue;
      }
      const std::string tag = std::to_string(level) + "_" + std::to_string(i);
      sim::Wire& out = c.wire(local + ".c" + tag, false);
      c.celement(local + ".ce" + tag,
                 std::vector<sim::Wire*>(layer.begin() + i,
                                         layer.begin() + i + n),
                 out);
      next.push_back(&out);
    }
    layer = std::move(next);
    ++level;
  }
  done_ = layer.front();
  depth_ = level;
}

}  // namespace emc::gates
