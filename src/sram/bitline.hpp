// Bit-line discharge dynamics with a time-varying supply.
//
// The bit-line is the slow, heavy node of the SRAM: ~170 fF of column
// capacitance discharged by one cell's stacked read current. Because the
// supply may move *during* an access (Fig. 7 ramps it mid-burst; AC
// supplies dip under it), the discharge is integrated in sub-steps:
// progress advances at the instantaneous rate set by the voltage at each
// step, pauses below the operating limit, and resumes — so a single read
// can straddle a brown-out and still complete, exactly the behaviour the
// SI controller's completion detection is there to exploit.
#pragma once

#include <functional>
#include <memory>

#include "sim/kernel.hpp"
#include "sram/cell.hpp"
#include "supply/supply.hpp"

namespace emc::sram {

struct BitlineParams {
  /// Section size in cells (completion-sectioning ablation divides the
  /// column; capacitance scales proportionally).
  std::size_t cells_on_line = 64;
  std::size_t cells_per_section = 64;
  /// Integration sub-steps per access.
  int substeps = 8;
  /// Write drivers are sized several times the cell's drive.
  double write_drive = 6.0;
};

class BitlineDynamics {
 public:
  BitlineDynamics(const CellModel& cell, BitlineParams params)
      : cell_(&cell), params_(params) {}

  const BitlineParams& params() const { return params_; }

  /// Read development time at constant `vdd` [s]: discharge the section's
  /// share of the column capacitance by the sensing swing through the
  /// cell's read current.
  double read_delay_seconds(double vdd, double vth_mismatch = 0.0) const;

  /// Write settle time at constant `vdd` [s]: the write driver slews the
  /// full bit-line (read-before-write leaves it at the old value; the
  /// completion logic waits for equality with the new one).
  double write_delay_seconds(double vdd) const;

  /// Section capacitance [F].
  double section_cap() const;

  const CellModel& cell() const { return *cell_; }

 private:
  const CellModel* cell_;
  BitlineParams params_;
};

/// Event-driven progress integrator: drives a [0,1] completion fraction
/// through the kernel in `substeps` increments, each timed at the
/// voltage in force when it starts. Stalls (and later resumes) when the
/// supply drops below the operating limit.
class SteppedAccess {
 public:
  using DelayFn = std::function<double(double /*vdd*/)>;  // seconds at V

  SteppedAccess(sim::Kernel& kernel, supply::Supply& supply,
                const device::DelayModel& model, DelayFn delay_at, int steps,
                std::function<void()> on_complete);
  ~SteppedAccess();

  void start();
  /// Times this access entered a brown-out stall.
  int stall_events() const { return stall_events_; }

 private:
  void step();

  sim::Kernel* kernel_;
  supply::Supply* supply_;
  const device::DelayModel* model_;
  DelayFn delay_at_;
  int steps_;
  int done_ = 0;
  bool stalled_ = false;
  int stall_events_ = 0;
  std::function<void()> on_complete_;
  // Liveness token: accesses are per-operation objects, but wake
  // listeners registered with the supply outlive them; callbacks check
  // the token before touching `this`.
  std::shared_ptr<bool> alive_;
};

}  // namespace emc::sram
