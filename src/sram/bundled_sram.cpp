#include "sram/bundled_sram.hpp"

namespace emc::sram {

BundledSram::BundledSram(const gates::Context& ctx, BundledSramParams params)
    : model_(&ctx.model),
      params_(params),
      cell_(ctx.model, params.cell),
      bitline_(cell_, params.bitline) {
  // Size the replica chains (in inverter stages) at their calibration
  // voltages.
  const auto stages_at = [&](double vcal, double margin) {
    return margin * bitline_.read_delay_seconds(vcal) /
           ctx.model.inverter_delay_seconds(vcal);
  };
  replica_stages_hi_ = stages_at(params_.calibration_vdd, params_.margin);
  replica_stages_lo_ =
      stages_at(params_.low_band_calibration_vdd, params_.margin);
}

double BundledSram::replica_delay_s(double vdd) const {
  const double d_inv = model_->inverter_delay_seconds(vdd);
  switch (params_.scheme) {
    case BundlingScheme::kFixedReplica:
      return replica_stages_hi_ * d_inv;
    case BundlingScheme::kBandedReplica:
      // The band selector needs a voltage reference (the cost the paper
      // wants to avoid); given one, pick the chain sized for this band.
      return (vdd >= params_.band_split_vdd ? replica_stages_hi_
                                            : replica_stages_lo_) *
             d_inv;
    case BundlingScheme::kColumnReplica:
      // A real column tracks the array column exactly; only a small
      // sizing margin is carried.
      return params_.column_margin * bitline_.read_delay_seconds(vdd);
  }
  return replica_stages_hi_ * d_inv;
}

double BundledSram::true_read_delay_s(double vdd) const {
  return bitline_.read_delay_seconds(vdd);
}

double BundledSram::failure_onset_vdd() const {
  // Scan downward for the first voltage where the replica under-waits.
  const auto& tech = model_->tech();
  for (double v = tech.vmax; v >= tech.vmin_operate; v -= 0.005) {
    if (replica_delay_s(v) < true_read_delay_s(v)) return v;
  }
  return 0.0;
}

}  // namespace emc::sram
