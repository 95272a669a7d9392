#include "gates/celement.hpp"

#include <cassert>

namespace emc::gates {

namespace {
// A C-element is roughly two inverting stages with feedback; the delay
// and capacitance factors live on the class (CElement::delay_stages /
// cap_factor) so timing-arc annotation uses the same numbers.
constexpr double kDelayStages = CElement::delay_stages();
double cap_for(std::size_t fanin) { return CElement::cap_factor(fanin); }
double leak_for(std::size_t fanin) { return 4.0 + 2.0 * double(fanin); }
}  // namespace

CElement::CElement(Context& ctx, std::string name,
                   std::vector<sim::Wire*> inputs, sim::Wire& out,
                   double vth_offset)
    : Gate(ctx, std::move(name), out, kDelayStages, cap_for(inputs.size()),
           vth_offset, leak_for(inputs.size())),
      inputs_(std::move(inputs)) {
  assert(!inputs_.empty());
  for (auto* w : inputs_) listen(*w);
}

bool CElement::evaluate(bool current) const {
  // Switch only when every input disagrees with the held output: rise
  // on all ones, fall on all zeros.
  for (auto* w : inputs_) {
    if (w->read() == current) return current;
  }
  return !current;
}

}  // namespace emc::gates
