// Declarative supply descriptors.
//
// A SupplyConfig is a copyable *description* of a power source — which
// variant (battery / AC / storage cap / piecewise ramp / harvested
// store), and its numbers. Nothing is simulated until
// `build(Kernel&)` elaborates the description into live supply objects,
// so a scenario's power regime is plain data: it can sit in a table, be
// swept over, printed, or compared — no per-bench factory lambdas
// capturing half the world.
//
// BuiltSupply owns everything the description needed (the supply chain,
// the harvester's RNG, the MPPT controller) with stable addresses, and
// exposes the one `supply::Supply&` gates should draw from plus typed
// accessors into the chain for benches that meter it.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/faultable_supply.hpp"
#include "sim/kernel.hpp"
#include "supply/ac_supply.hpp"
#include "supply/battery.hpp"
#include "supply/harvester.hpp"
#include "supply/mppt.hpp"
#include "supply/storage_cap.hpp"

namespace emc::exp {

/// Thrown on structurally invalid supply descriptions (e.g. a harvested
/// store described by a non-capacitor config). Unconditional — Release
/// sweeps fail loudly too.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

class BuiltSupply;

class SupplyConfig {
 public:
  enum class Kind {
    kBattery,
    kAc,
    kStorageCap,
    kPiecewise,
    kHarvested,
  };

  // --- variant factories ----------------------------------------------

  /// Ideal battery at `volts`.
  static SupplyConfig battery(double volts);

  /// Sinusoidal supply `offset + amplitude * sin(2 pi f t)` (optionally
  /// full-wave rectified) — the Fig. 4 power source.
  static SupplyConfig ac(double offset_v, double amplitude_v,
                         double frequency_hz, bool rectified = false);

  /// Storage capacitor of `capacitance` [F] pre-charged to
  /// `initial_volts` — computation runs until the charge runs out.
  static SupplyConfig storage_cap(double capacitance_f, double initial_volts);

  /// Piecewise-linear voltage profile over (time, volts) breakpoints.
  static SupplyConfig piecewise(
      std::vector<std::pair<sim::Time, double>> points,
      sim::Time retry_hint = sim::us(1));

  /// Harvested store: stochastic harvester (seeded Markov power process)
  /// + optional MPPT depositing into a storage capacitor described by
  /// `store_cap`. The load draws from the store. `auto_start` starts the
  /// harvester (and MPPT) during elaboration; pass false when the bench
  /// orders its own t=0 events.
  static SupplyConfig harvested(const SupplyConfig& store_cap,
                                supply::HarvesterProfile profile,
                                std::uint64_t seed,
                                sim::Time tick = sim::us(10),
                                bool with_mppt = true, bool auto_start = true);

  // --- modifiers (chainable) ------------------------------------------

  /// Supply object name used in reports/traces (each variant has an
  /// idiomatic default: "vdd", "ac", "cap", "ramp", ...).
  SupplyConfig& name(std::string n) {
    name_ = std::move(n);
    return *this;
  }

  /// Storage-cap variants: wake threshold for stalled-gate resume [V].
  SupplyConfig& wake_threshold(double volts);
  /// Storage-cap variants: overvoltage (shunt-regulator) clamp [V].
  SupplyConfig& max_voltage(double volts);
  /// Storage-cap variants: record the voltage history at every
  /// draw/deposit.
  SupplyConfig& trace(bool on = true);

  /// Interpose a fault::FaultableSupply between the load and the rail —
  /// the injection point FaultPlans bind to (BuiltSupply::fault() /
  /// Experiment::fault_supply()). With no fault windows elaborated the
  /// wrapper is transparent: voltages, draws, epochs and wakes forward
  /// unchanged, so results are byte-identical to the bare rail. The
  /// EMC_FAULT_SMOKE=1 environment variable forces this on every build —
  /// CI runs tier-1 under it to smoke exactly that transparency.
  SupplyConfig& faultable(bool on = true) {
    faultable_ = on;
    return *this;
  }

  // --- queries ---------------------------------------------------------
  Kind kind() const { return kind_; }

  /// Elaborate the description into live supply objects on `kernel`.
  /// `trial_seed` is the Monte-Carlo replication hook: 0 (default)
  /// elaborates exactly as described; a non-zero trial seed re-keys the
  /// stochastic stages (the harvester's Markov stream) onto the derived
  /// stream (config_seed, trial_seed), so each replica sees a fresh but
  /// reproducible environment while deterministic variants are unchanged.
  BuiltSupply build(sim::Kernel& kernel, std::uint64_t trial_seed = 0) const;

 private:
  SupplyConfig() = default;
  friend class BuiltSupply;

  /// Apply the cap modifiers shared by every capacitor-backed variant.
  void apply_cap_modifiers(supply::StorageCap& cap) const;

  Kind kind_ = Kind::kBattery;
  std::string name_ = "vdd";

  // kBattery
  double volts_ = 1.0;
  // kAc
  double ac_offset_ = 0.0;
  double ac_amplitude_ = 0.0;
  double ac_frequency_ = 1e6;
  bool ac_rectified_ = false;
  // kStorageCap (also the store cap of kHarvested)
  double cap_f_ = 0.0;
  double cap_v0_ = 0.0;
  double cap_wake_threshold_ = -1.0;  ///< <0 = leave class default
  double cap_max_voltage_ = 0.0;     ///< 0 = unclamped
  bool cap_trace_ = false;
  // kPiecewise
  std::vector<std::pair<sim::Time, double>> pw_points_;
  sim::Time pw_retry_ = sim::us(1);
  // kHarvested
  supply::HarvesterProfile harvest_profile_;
  std::uint64_t harvest_seed_ = 1;
  sim::Time harvest_tick_ = sim::us(10);
  bool with_mppt_ = true;
  bool auto_start_ = true;
  // any variant
  bool faultable_ = false;
};

/// The live objects a SupplyConfig elaborates into. Movable; addresses
/// of the owned supplies are stable across moves.
class BuiltSupply {
 public:
  /// The rail gates should draw from (the store for kHarvested, the
  /// supply itself otherwise).
  supply::Supply& supply() { return *load_rail_; }

  /// Typed accessors into the chain; null when the variant has no such
  /// stage.
  supply::StorageCap* store() { return store_; }
  supply::AcSupply* ac() { return ac_; }
  supply::Harvester* harvester() { return harvester_.get(); }
  supply::MpptController* mppt() { return mppt_.get(); }
  /// The fault-injection wrapper (null unless the config was marked
  /// faultable() or EMC_FAULT_SMOKE=1 forced one). When present it IS
  /// the load rail supply() returns.
  fault::FaultableSupply* fault() { return fault_.get(); }

  /// Start the harvester/MPPT stages of a config built with
  /// auto_start = false.
  void start();

 private:
  friend class SupplyConfig;
  BuiltSupply() = default;

  std::unique_ptr<supply::Supply> primary_;     // battery/AC/cap/piecewise
  std::unique_ptr<sim::Rng> rng_;               // owned for the harvester
  std::unique_ptr<supply::Harvester> harvester_;
  std::unique_ptr<supply::MpptController> mppt_;
  std::unique_ptr<fault::FaultableSupply> fault_;
  supply::Supply* load_rail_ = nullptr;
  supply::StorageCap* store_ = nullptr;
  supply::AcSupply* ac_ = nullptr;
};

}  // namespace emc::exp
