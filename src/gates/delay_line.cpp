#include "gates/delay_line.hpp"

#include "netlist/module.hpp"

namespace emc::gates {

DelayLine::DelayLine(Context& ctx, std::string name, sim::Wire& input,
                     std::size_t stages, double vth_offset)
    : DelayLine(ctx, std::move(name), input, stages, vth_offset, 0.0,
                nullptr) {}

DelayLine::DelayLine(Context& ctx, std::string name, sim::Wire& input,
                     std::size_t stages, double vth_offset, double vth_sigma,
                     sim::Rng& rng)
    : DelayLine(ctx, std::move(name), input, stages, vth_offset, vth_sigma,
                &rng) {}

DelayLine::DelayLine(Context& ctx, std::string name, sim::Wire& input,
                     std::size_t stages, double vth_offset, double vth_sigma,
                     sim::Rng* rng)
    : input_name_(input.name()) {
  taps_.reserve(stages);
  gates_.reserve(stages);
  sim::Wire* prev = &input;
  for (std::size_t i = 0; i < stages; ++i) {
    taps_.push_back(std::make_unique<sim::Wire>(
        ctx.kernel, name + ".t" + std::to_string(i),
        // Initial values alternate so the chain starts settled for a low
        // input: INV(0)=1, INV(1)=0, ...
        (i % 2) == 0));
    double offset = vth_offset;
    if (rng != nullptr && vth_sigma > 0.0) {
      offset += rng->gaussian(0.0, vth_sigma);
    }
    gates_.push_back(std::make_unique<CombGate>(
        ctx, name + ".inv" + std::to_string(i), Op::kInv,
        std::vector<sim::Wire*>{prev}, *taps_.back(), offset));
    prev = taps_.back().get();
  }
  capture_baseline();
}

void DelayLine::capture_baseline() {
  baseline_.clear();
  baseline_.reserve(taps_.size());
  for (const auto& t : taps_) baseline_.push_back(t->read());
}

std::size_t DelayLine::thermometer_code() const {
  std::size_t k = 0;
  while (k < taps_.size() && taps_[k]->read() != baseline_[k]) ++k;
  return k;
}

void DelayLine::describe_into(netlist::Circuit& c) const {
  const sim::Wire* prev = nullptr;
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const CombGate& g = *gates_[i];
    c.note_element(g.name(), netlist::ElementKind::kComb);
    c.note_external_wire(taps_[i]->name());
    const std::string& from = prev == nullptr ? input_name_ : prev->name();
    c.note_edge(from, g.name());
    c.note_edge(g.name(), taps_[i]->name());
    // Timing arc per stage: a reference inverter (load 1.0 c_inv) at the
    // stage's actual per-instance threshold, Monte-Carlo draw included —
    // the static model sees the same chain the wavefront traverses.
    c.note_timing_arc(from, g.name(), taps_[i]->name(), 1.0, g.vth_offset(),
                      g.strength());
    prev = taps_[i].get();
  }
}

}  // namespace emc::gates
