// Voltage-aware delay / energy model (the SPICE substitution).
//
// Drive current uses the EKV interpolation
//
//     I(V) = Is * ln^2(1 + exp((V - Vth) / (2 n VT)))
//
// which has the correct asymptotes: quadratic (V-Vth)^2 in strong
// inversion and exponential exp((V-Vth)/(n VT)) in sub-threshold, with a
// smooth transition — exactly the behaviour responsible for every curve
// in the paper (logic slows ~1000x between 1 V and 0.15 V, and SRAM
// bit-lines slow *faster* than logic because their cell stack has a
// higher effective threshold).
//
// Delay of a gate driving capacitance C:  t = C * V / I(V).
// Dynamic energy per output transition:   E = C * V^2 (drawn from the
// supply as charge Q = C * V at voltage V).
//
// Hot-path note: the ln^2(1+exp(...)) kernel is memoized in a shared
// device::DelayTable (monotone cubic interpolation on a quantized grid,
// exact-EKV fallback outside it — see delay_table.hpp for the accuracy
// contract). drive_current_exact() bypasses the table for accuracy
// tests and calibration.
#pragma once

#include <memory>

#include "device/delay_table.hpp"
#include "device/tech.hpp"
#include "device/variation.hpp"
#include "sim/time.hpp"

namespace emc::device {

class DelayModel {
 public:
  explicit DelayModel(const Tech& tech)
      : tech_(tech), table_(DelayTable::shared_for(tech)) {}

  const Tech& tech() const { return tech_; }

  /// The shared memoization table behind drive_current().
  const DelayTable& table() const { return *table_; }

  /// EKV drive current at supply voltage `vdd` for a device whose
  /// effective threshold is `vth_logic + vth_offset` [A].
  /// `strength` is a drive-width multiplier (1.0 = minimum device).
  /// Memoized via the shared DelayTable.
  double drive_current(double vdd, double vth_offset = 0.0,
                       double strength = 1.0) const;

  /// Same quantity evaluated with the exact EKV transcendental (no
  /// table) — the reference for DelayTable accuracy tests.
  double drive_current_exact(double vdd, double vth_offset = 0.0,
                             double strength = 1.0) const;

  /// Propagation delay of a gate with load `cload` [F] at `vdd` [s].
  /// Returns +inf below the operating limit.
  double delay_seconds(double vdd, double cload, double vth_offset = 0.0,
                       double strength = 1.0) const;

  /// Same, in simulation ticks (saturating).
  sim::Time delay(double vdd, double cload, double vth_offset = 0.0,
                  double strength = 1.0) const;

  /// Monte-Carlo convenience: evaluate at a sampled device's operating
  /// point. Both sampled quantities factor out of the memoized kernel,
  /// so this stays on the shared DelayTable — no per-instance tables.
  double delay_seconds(double vdd, double cload, const DeviceSample& d) const {
    return delay_seconds(vdd, cload, d.vth_offset, d.strength);
  }

  /// Dynamic switching energy of one output transition [J].
  double switching_energy(double vdd, double cload) const {
    return cload * vdd * vdd;
  }

  /// Charge drawn from the supply for one output transition [C].
  double switching_charge(double vdd, double cload) const {
    return cload * vdd;
  }

  /// True if gates can switch at this supply voltage.
  bool operational(double vdd) const { return vdd >= tech_.vmin_operate; }

  /// Reference inverter delay at `vdd` [s] — the "ruler" unit used by
  /// Fig. 5 and the reference-free sensor.
  double inverter_delay_seconds(double vdd) const {
    return delay_seconds(vdd, tech_.c_inv);
  }

  /// SRAM bit-line development delay at `vdd` [s]: the time for the cell
  /// read stack to discharge the column capacitance by the sensing swing.
  /// This over the inverter delay reproduces the Fig. 5 ratio
  /// (~50 at 1 V, ~158 at 190 mV).
  double bitline_delay_seconds(double vdd) const;

  /// Fig. 5 quantity: SRAM read delay expressed in inverter delays.
  double sram_delay_in_inverters(double vdd) const {
    return bitline_delay_seconds(vdd) / inverter_delay_seconds(vdd);
  }

 private:
  Tech tech_;
  std::shared_ptr<const DelayTable> table_;
};

}  // namespace emc::device
