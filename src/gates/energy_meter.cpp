#include "gates/energy_meter.hpp"

namespace emc::gates {

EnergyMeter::EnergyMeter(sim::Kernel& kernel, const device::Tech& tech,
                         supply::Supply* supply)
    : kernel_(&kernel), leakage_(tech), supply_(supply) {}

EnergyMeter::GateId EnergyMeter::add(std::string name, double leak_width) {
  gates_.push_back(Entry{std::move(name), leak_width});
  total_leak_width_ += leak_width;
  leak_epoch_ = 0;  // leakage power scales with total width
  return gates_.size() - 1;
}

void EnergyMeter::integrate_leakage_to(sim::Time now) {
  if (supply_ != nullptr && total_leak_width_ > 0.0) {
    const std::uint64_t epoch = supply_->voltage_epoch();
    if (epoch != leak_epoch_) {
      leak_epoch_ = epoch;
      leak_power_w_ =
          leakage_.power(supply_->cached_voltage(epoch), total_leak_width_);
    }
    const double dt = sim::to_seconds(now - last_leak_integration_);
    leakage_j_ += leak_power_w_ * dt;
  }
  last_leak_integration_ = now;
}

std::string EnergyMeter::prefix_of(const std::string& name,
                                   std::size_t depth) {
  std::size_t pos = 0;
  for (std::size_t d = 0; d < depth; ++d) {
    const std::size_t dot = name.find('.', pos);
    if (dot == std::string::npos) return name;
    pos = dot + 1;
  }
  return name.substr(0, pos == 0 ? name.size() : pos - 1);
}

std::map<std::string, double> EnergyMeter::energy_by_prefix(
    std::size_t depth) const {
  std::map<std::string, double> out;
  for (const auto& e : gates_) out[prefix_of(e.name, depth)] += e.dynamic_j;
  return out;
}

}  // namespace emc::gates
