#include "exp/supply_config.hpp"

#include <cstdlib>
#include <cstring>

#include "sim/random.hpp"

namespace emc::exp {

namespace {

/// EMC_FAULT_SMOKE=1 forces a (windowless, hence transparent)
/// FaultableSupply under every elaborated config — the tier-1 suite run
/// under it smokes the wrapper's forwarding across every supply variant.
/// Read per build (not cached): elaboration is cold, and tests toggle it.
bool fault_smoke_forced() {
  const char* v = std::getenv("EMC_FAULT_SMOKE");
  return v != nullptr && std::strcmp(v, "1") == 0;
}

void require_cap(const SupplyConfig& c, const char* variant) {
  if (c.kind() != SupplyConfig::Kind::kStorageCap) {
    throw ConfigError(std::string("SupplyConfig::") + variant +
                      ": the nested config must be a storage_cap");
  }
}

}  // namespace

SupplyConfig SupplyConfig::battery(double volts) {
  SupplyConfig c;
  c.kind_ = Kind::kBattery;
  c.name_ = "vdd";
  c.volts_ = volts;
  return c;
}

SupplyConfig SupplyConfig::ac(double offset_v, double amplitude_v,
                              double frequency_hz, bool rectified) {
  SupplyConfig c;
  c.kind_ = Kind::kAc;
  c.name_ = "ac";
  c.ac_offset_ = offset_v;
  c.ac_amplitude_ = amplitude_v;
  c.ac_frequency_ = frequency_hz;
  c.ac_rectified_ = rectified;
  return c;
}

SupplyConfig SupplyConfig::storage_cap(double capacitance_f,
                                       double initial_volts) {
  SupplyConfig c;
  c.kind_ = Kind::kStorageCap;
  c.name_ = "cap";
  c.cap_f_ = capacitance_f;
  c.cap_v0_ = initial_volts;
  return c;
}

SupplyConfig SupplyConfig::piecewise(
    std::vector<std::pair<sim::Time, double>> points, sim::Time retry_hint) {
  SupplyConfig c;
  c.kind_ = Kind::kPiecewise;
  c.name_ = "ramp";
  c.pw_points_ = std::move(points);
  c.pw_retry_ = retry_hint;
  return c;
}

SupplyConfig SupplyConfig::harvested(const SupplyConfig& store_cap,
                                     supply::HarvesterProfile profile,
                                     std::uint64_t seed, sim::Time tick,
                                     bool with_mppt, bool auto_start) {
  require_cap(store_cap, "harvested");
  SupplyConfig c = store_cap;
  c.kind_ = Kind::kHarvested;
  c.name_ = store_cap.name_ == "cap" ? "store" : store_cap.name_;
  c.harvest_profile_ = profile;
  c.harvest_seed_ = seed;
  c.harvest_tick_ = tick;
  c.with_mppt_ = with_mppt;
  c.auto_start_ = auto_start;
  return c;
}

SupplyConfig& SupplyConfig::wake_threshold(double volts) {
  cap_wake_threshold_ = volts;
  return *this;
}

SupplyConfig& SupplyConfig::max_voltage(double volts) {
  cap_max_voltage_ = volts;
  return *this;
}

SupplyConfig& SupplyConfig::trace(bool on) {
  cap_trace_ = on;
  return *this;
}

void SupplyConfig::apply_cap_modifiers(supply::StorageCap& cap) const {
  if (cap_wake_threshold_ >= 0.0) cap.set_wake_threshold(cap_wake_threshold_);
  if (cap_max_voltage_ > 0.0) cap.set_max_voltage(cap_max_voltage_);
  if (cap_trace_) cap.enable_trace();
}

BuiltSupply SupplyConfig::build(sim::Kernel& kernel,
                                std::uint64_t trial_seed) const {
  BuiltSupply b;
  switch (kind_) {
    case Kind::kBattery: {
      auto s = std::make_unique<supply::Battery>(kernel, name_, volts_);
      b.load_rail_ = s.get();
      b.primary_ = std::move(s);
      break;
    }
    case Kind::kAc: {
      auto s = std::make_unique<supply::AcSupply>(
          kernel, name_, ac_offset_, ac_amplitude_, ac_frequency_,
          ac_rectified_);
      b.ac_ = s.get();
      b.load_rail_ = s.get();
      b.primary_ = std::move(s);
      break;
    }
    case Kind::kStorageCap: {
      auto s = std::make_unique<supply::StorageCap>(kernel, name_, cap_f_,
                                                    cap_v0_);
      apply_cap_modifiers(*s);
      b.store_ = s.get();
      b.load_rail_ = s.get();
      b.primary_ = std::move(s);
      break;
    }
    case Kind::kPiecewise: {
      auto s = std::make_unique<supply::PiecewiseSupply>(
          kernel, name_, pw_points_, pw_retry_);
      b.load_rail_ = s.get();
      b.primary_ = std::move(s);
      break;
    }
    case Kind::kHarvested: {
      auto store = std::make_unique<supply::StorageCap>(kernel, name_, cap_f_,
                                                        cap_v0_);
      apply_cap_modifiers(*store);
      // Replicated scenarios re-key the harvest stream per trial; the
      // base description (trial_seed = 0) keeps its configured seed.
      b.rng_ = std::make_unique<sim::Rng>(
          trial_seed == 0 ? harvest_seed_
                          : sim::derive_seed(harvest_seed_, trial_seed));
      b.harvester_ = std::make_unique<supply::Harvester>(
          kernel, harvest_profile_, *store, *b.rng_, harvest_tick_);
      if (with_mppt_) {
        b.mppt_ = std::make_unique<supply::MpptController>(
            kernel, *b.harvester_, supply::MpptParams{});
      }
      b.store_ = store.get();
      b.load_rail_ = store.get();
      b.primary_ = std::move(store);
      if (auto_start_) b.start();
      break;
    }
  }
  if (faultable_ || fault_smoke_forced()) {
    b.fault_ = std::make_unique<fault::FaultableSupply>(*b.load_rail_);
    b.load_rail_ = b.fault_.get();
  }
  return b;
}

void BuiltSupply::start() {
  if (harvester_) harvester_->start();
  if (mppt_) mppt_->start();
}

}  // namespace emc::exp
