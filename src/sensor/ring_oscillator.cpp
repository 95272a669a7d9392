#include "sensor/ring_oscillator.hpp"

#include <cassert>

namespace emc::sensor {

RingOscillatorSensor::RingOscillatorSensor(gates::Context& ctx,
                                           std::string name,
                                           RingOscParams params)
    : circuit_(ctx, std::move(name)), params_(params) {
  assert(params_.stages % 2 == 1 && "ring length must be odd");
  enable_ = &circuit_.wire("enable", false);
  // NAND closes the ring so the oscillator can be gated; the remaining
  // stages are inverters.
  sim::Wire* prev = &circuit_.wire("n0", true);
  sim::Wire* first = prev;
  for (std::size_t i = 1; i < params_.stages; ++i) {
    sim::Wire& w = circuit_.wire("n" + std::to_string(i), (i % 2) == 0);
    circuit_.comb("inv" + std::to_string(i), gates::Op::kInv,
                  std::vector<sim::Wire*>{prev}, w);
    prev = &w;
  }
  circuit_.comb("nand", gates::Op::kNand, std::vector<sim::Wire*>{enable_, prev},
                *first);
  circuit_.mark_env_driven(*enable_);
  circuit_.suppress("C001", circuit_.name() + ".nand",
                    "ring oscillator: the combinational loop IS the sensor "
                    "(frequency ~ Vdd), gated by enable");
  out_ = prev;
}

void RingOscillatorSensor::measure(std::function<void(std::uint64_t)> cb) {
  assert(!measuring_);
  measuring_ = true;
  const std::uint64_t before = out_->transitions();
  enable_->set(true);
  circuit_.ctx().kernel.schedule(
      params_.gate_window, [this, before, cb = std::move(cb),
                            alive = std::weak_ptr<bool>(alive_)] {
        if (!alive.lock()) return;  // the sensor was destroyed
        enable_->set(false);
        measuring_ = false;
        cb(out_->transitions() - before);
      });
}

double RingOscillatorSensor::expected_code(double vdd) const {
  const auto& model = circuit_.ctx().model;
  if (!model.operational(vdd)) return 0.0;
  // One output transition per half ring traversal; the NAND counts like
  // an inverter-and-a-bit.
  const double stage = model.inverter_delay_seconds(vdd);
  const double half_period = (static_cast<double>(params_.stages) + 0.6) * stage;
  return sim::to_seconds(params_.gate_window) / half_period;
}

}  // namespace emc::sensor
