// Conventionally-timed SRAM baselines (what the SI SRAM replaces).
//
// The paper (§III.A) lists the prior art for timing SRAM under a wide
// Vdd range: (a) an inverter-chain replica sized at one voltage — which
// Fig. 5 shows must fail elsewhere, because an SRAM read is worth ~50
// inverters at 1 V but ~158 at 190 mV; (b) multiple delay lines selected
// per Vdd band (needs voltage references); (c) a duplicated SRAM column
// as the delay element — the "smart latency bundling" of [8], which
// tracks perfectly but costs a column. Each scheme is modelled here
// analytically, as the wait it imposes against the true bit-line
// development, so the benches can score them against genuine completion
// detection.
#pragma once

#include "device/delay_model.hpp"
#include "gates/gate.hpp"
#include "sram/bitline.hpp"
#include "sram/cell.hpp"

namespace emc::sram {

enum class BundlingScheme {
  kFixedReplica,   ///< inverter chain sized at calibration Vdd
  kBandedReplica,  ///< two chains + a (reference-needing) band select
  kColumnReplica,  ///< duplicated column with completion detection [8]
};

struct BundledSramParams {
  CellParams cell{};
  BitlineParams bitline{};
  BundlingScheme scheme = BundlingScheme::kFixedReplica;
  /// Replica sizing voltage and margin for kFixedReplica.
  double calibration_vdd = 1.0;
  double margin = 1.3;
  /// Band boundary and low-band sizing voltage for kBandedReplica. The
  /// split must sit above the high chain's failure onset (~0.61 V with
  /// margin 1.3), else the high band dies before the selector switches.
  double band_split_vdd = 0.65;
  double low_band_calibration_vdd = 0.35;
  /// Column replica margin for kColumnReplica (tracks, so small).
  double column_margin = 1.1;
};

class BundledSram {
 public:
  BundledSram(const gates::Context& ctx, BundledSramParams params);

  /// Replica delay at `vdd` [s] (what the controller waits).
  double replica_delay_s(double vdd) const;
  /// True bit-line development at `vdd` [s] (what it should have waited).
  double true_read_delay_s(double vdd) const;
  /// Largest Vdd below which reads mistime (replica < truth), by scan.
  double failure_onset_vdd() const;

 private:
  const device::DelayModel* model_;
  BundledSramParams params_;
  CellModel cell_;
  BitlineDynamics bitline_;
  double replica_stages_hi_ = 0.0;
  double replica_stages_lo_ = 0.0;
};

}  // namespace emc::sram
