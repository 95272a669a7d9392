#include "gates/delay_line.hpp"

#include "netlist/module.hpp"

namespace emc::gates {

DelayLine::DelayLine(netlist::Circuit& c, const std::string& local,
                     sim::Wire& input, std::size_t stages, double vth_offset,
                     double vth_sigma, sim::Rng* rng) {
  taps_.reserve(stages);
  sim::Wire* prev = &input;
  for (std::size_t i = 0; i < stages; ++i) {
    // Initial values alternate so the chain starts settled for a low
    // input: INV(0)=1, INV(1)=0, ...
    sim::Wire& tap = c.wire(local + ".t" + std::to_string(i), (i % 2) == 0);
    double offset = vth_offset;
    if (rng != nullptr && vth_sigma > 0.0) {
      offset += rng->gaussian(0.0, vth_sigma);
    }
    c.comb(local + ".inv" + std::to_string(i), Op::kInv,
           std::vector<sim::Wire*>{prev}, tap, offset);
    taps_.push_back(&tap);
    prev = &tap;
  }
  capture_baseline();
}

void DelayLine::capture_baseline() {
  baseline_.clear();
  baseline_.reserve(taps_.size());
  for (const sim::Wire* t : taps_) baseline_.push_back(t->read());
}

std::size_t DelayLine::thermometer_code() const {
  std::size_t k = 0;
  while (k < taps_.size() && taps_[k]->read() != baseline_[k]) ++k;
  return k;
}

}  // namespace emc::gates
