// SRAM energy-per-operation model, calibrated to the paper's anchors.
//
// E_op(V) = E_dyn0 * V^2  +  V * I_leak(V) * T_op(V)
//
// with T_op the same phase-sum the SI controller executes, and
// I_leak(V) = I_L1 * exp(dibl*(V-1)/(n*VT)). The two free constants
// (E_dyn0 for a write, I_L1) are solved at construction from the paper's
// two measurements — 5.8 pJ per 16-bit write at 1.0 V and 1.9 pJ at
// 0.4 V — so the reported curve passes through both by construction, and
// the *shape* (in particular the minimum-energy point the paper puts at
// ~0.4 V) is then a genuine model output, not a fit.
#pragma once

#include "device/delay_model.hpp"
#include "sram/bitline.hpp"

namespace emc::sram {

struct SramPhaseTimings {
  // Phase durations in reference-inverter delays (logic-threshold
  // devices), mirroring SiSram's sequencing.
  double decode_stages = 4.0;
  double control_read_stages = 10.0;   ///< CD tree + handshakes
  double control_write_stages = 12.0;  ///< + write-enable sequencing
  double wl_pulse_stages = 2.0;
  double precharge_drive = 8.0;  ///< precharge driver strength (x cell)
};

struct SramEnergyAnchors {
  double vdd_hi = 1.0;
  double write_j_hi = 5.8e-12;
  double vdd_lo = 0.4;
  double write_j_lo = 1.9e-12;
  /// Reads skip the write-driver swing and the WL restore.
  double read_dyn_fraction = 0.55;
};

class SramEnergyModel {
 public:
  SramEnergyModel(const BitlineDynamics& bitline, SramPhaseTimings timings,
                  SramEnergyAnchors anchors);

  // --- operation timing (phase sums; used by both model and controller)
  double read_time_s(double vdd) const;
  double write_time_s(double vdd) const;
  double precharge_time_s(double vdd) const;

  // --- energy ----------------------------------------------------------
  double dynamic_write_j(double vdd) const { return e_dyn0_ * vdd * vdd; }
  double dynamic_read_j(double vdd) const {
    return anchors_.read_dyn_fraction * dynamic_write_j(vdd);
  }
  /// Array + periphery leakage current at `vdd` [A].
  double leakage_current(double vdd) const;
  double leakage_power(double vdd) const {
    return vdd * leakage_current(vdd);
  }
  /// Total energy of one write/read at constant `vdd` [J].
  double energy_per_write(double vdd) const;
  double energy_per_read(double vdd) const;

  /// Vdd of the minimum write energy (golden-section over the range).
  double min_energy_vdd(double lo = 0.16, double hi = 1.1) const;

  // --- calibration outputs ----------------------------------------------
  double e_dyn0() const { return e_dyn0_; }
  double i_leak1() const { return i_leak1_; }
  /// Equivalent leakage width in unit devices (for the EnergyMeter).
  double leak_width_units() const;

 private:
  double dibl_factor(double vdd) const;

  const BitlineDynamics* bitline_;
  SramPhaseTimings timings_;
  SramEnergyAnchors anchors_;
  double e_dyn0_ = 0.0;
  double i_leak1_ = 0.0;
};

}  // namespace emc::sram
