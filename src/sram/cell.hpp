// 6T (and 8T) SRAM cell physics.
//
// What the paper's SRAM story needs from a cell model:
//  * a read current through the access/driver stack with an *elevated
//    effective threshold* — the root cause of the SRAM-vs-logic scaling
//    mismatch of Fig. 5;
//  * bit-line leakage of the unselected cells — what ultimately limits
//    sensing at low Vdd and what the paper's completion-sectioning and
//    8T-cell suggestions attack;
//  * a minimum write voltage and a retention voltage, for the failure
//    analysis of [8] and the brown-out experiments.
#pragma once

#include "device/delay_model.hpp"
#include "device/tech.hpp"

namespace emc::sram {

struct CellParams {
  /// Bit-line leakage of one unselected cell at Vdd = 1 V [A]. Cells use
  /// high-Vth devices, so this is well below the logic leakage unit.
  double bitline_leak_unit = 0.35e-9;
  /// Sense margin: the selected cell's read current must exceed
  /// `sense_margin` times the summed leakage of its bit-line section for
  /// the completion detector to see a clean monotonic swing.
  double sense_margin = 6.0;
  /// Minimum Vdd at which a write upsets the cell [V].
  double write_min_vdd = 0.17;
  /// Below this voltage the cell loses its state [V].
  double retention_vdd = 0.10;
  /// 8T cell: two extra stacked NMOS decouple the read path — less
  /// bit-line leakage (stack effect), slightly larger area/cap.
  bool eight_t = false;
  double eight_t_leak_factor = 0.35;
  double eight_t_cap_factor = 1.15;
};

class CellModel {
 public:
  CellModel(const device::DelayModel& model, CellParams params)
      : model_(&model), params_(params) {}

  const CellParams& params() const { return params_; }

  /// Read current of the selected cell at `vdd` [A]; `vth_mismatch` is a
  /// per-cell Monte-Carlo threshold shift.
  double read_current(double vdd, double vth_mismatch = 0.0) const;

  /// Bit-line leakage of one unselected cell at `vdd` [A].
  double bitline_leakage(double vdd) const;

  /// True when a section of `cells_per_section` cells can be sensed at
  /// `vdd`: read current dominates aggregate leakage by the margin.
  bool sensable(double vdd, std::size_t cells_per_section,
                double vth_mismatch = 0.0) const;

  /// Smallest Vdd at which `sensable` holds (bisection over the model
  /// range); returns tech.vmax if never. `vth_mismatch` shifts the
  /// selected cell's threshold (Monte-Carlo worst cell of the section).
  double min_read_vdd(std::size_t cells_per_section,
                      double vth_mismatch = 0.0) const;

  bool write_ok(double vdd) const { return vdd >= params_.write_min_vdd; }

  const device::DelayModel& delay_model() const { return *model_; }

 private:
  const device::DelayModel* model_;
  CellParams params_;
};

}  // namespace emc::sram
