// Fig. 5 — mismatch between the scaling of SRAM and logic.
//
// Sweeps Vdd and prints the SRAM read delay expressed in inverter
// delays. Anchors: 50 inverters at 1.0 V, 158 at 190 mV.
//
// Replicated: each Vdd point runs kTrials Monte-Carlo chips
// (exp::Workbench::replicate), every trial sampling the SRAM word's
// worst cell threshold and the ruler inverter's own draw from its
// counter-based seed stream. Neither draw depends on Vdd, so each chip
// is drawn once, before the sweep (exp::Workbench::per_trial, 24 B per
// trial), and the models are built once per run; a row only evaluates
// the two delays at its Vdd. The printed table and fig5_mismatch.csv
// carry the trial distribution (mean / p5 / p95) around the nominal
// curve — the paper's ratio is the mean; the spread is what the banded
// workarounds would have to margin for.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/sweep.hpp"
#include "device/delay_model.hpp"
#include "device/variation.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/replicated.hpp"
#include "sram/bitline.hpp"
#include "sram/cell.hpp"
#include "sram/si_controller.hpp"

namespace {
constexpr std::size_t kTrials = 24;
constexpr double kVthSigma = 0.020;  // 20 mV local mismatch
constexpr std::size_t kWordBits = 16;
constexpr std::uint64_t kRulerId = 0;     // the reference inverter
constexpr std::uint64_t kCellBaseId = 1;  // the addressed word's cells

/// One virtual chip: the ruler inverter's draw and the word's worst cell.
struct Chip {
  emc::device::DeviceSample ruler;
  double word_worst_vth = 0.0;
};

/// Trials -> band reduction (the figure's registered trial model).
emc::analysis::Aggregate fig5_aggregate() {
  return emc::analysis::Aggregate({"vdd_V"}).stats("sram_in_inverters");
}

}  // namespace

static int run_fig5(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Fig. 5 — SRAM read delay in inverter-delay units vs Vdd "
      "(Monte-Carlo)");

  exp::Workbench wb("fig5_mismatch_trials");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", analysis::vdd_grid());
  wb.replicate(ctx.trials_or(kTrials), ctx.seed);
  wb.columns({"vdd_V", "trial", "inv_delay_ps", "sram_read_ns",
              "sram_in_inverters"});

  const device::Variation variation = device::Variation::local(kVthSigma);
  const std::vector<Chip> chips = wb.per_trial([&](std::uint64_t seed) {
    const device::VariationSampler sampler(variation, seed);
    return Chip{sampler.sample(kRulerId),
                sampler.worst_vth(kCellBaseId, kWordBits)};
  });
  // Read-only, shared by every row on every worker.
  const device::DelayModel model{device::Tech::umc90()};
  const sram::CellModel cell(model, sram::CellParams{});
  const sram::BitlineDynamics bitline(cell, sram::BitlineParams{});

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    const int trial = p.get<int>("trial");
    const Chip& chip = chips[static_cast<std::size_t>(trial)];
    // The ruler inverter carries its own sample; the read is gated by
    // the slowest cell of the addressed word.
    const double d_inv = model.delay_seconds(v, model.tech().c_inv, chip.ruler);
    const double d_sram = bitline.read_delay_seconds(v, chip.word_worst_vth);
    rec.row()
        .set("vdd_V", v)
        .set("trial", trial)
        .set("inv_delay_ps", d_inv * 1e12, 4)
        .set("sram_read_ns", d_sram * 1e9, 4)
        .set("sram_in_inverters", d_sram / d_inv, 4);
  };

  // The plot CSV (fig5_mismatch.csv) is the MC band around the ratio
  // curve.
  if (repro::run_replicated(ctx, "fig5_sram_logic_mismatch", wb, body) != 0) {
    return 1;
  }

  analysis::print_anchor("SRAM read in inverters at 1.0 V", 50.0,
                         model.sram_delay_in_inverters(1.0), "inv");
  analysis::print_anchor("SRAM read in inverters at 0.19 V", 158.0,
                         model.sram_delay_in_inverters(0.19), "inv");
  std::printf(
      "\nConsequence (paper): a replica delay line sized at one Vdd cannot\n"
      "bundle the SRAM at another — and the Monte-Carlo band shows it "
      "cannot\neven bundle two *chips* at the same Vdd. Distribution "
      "written to\nfig5_mismatch.csv (raw trials: "
      "fig5_mismatch_trials.csv).\n");
  return 0;
}

static void lint_fig5(emc::lint::Session& s) {
  // The figure sweeps the analytic bit-line model; the structure whose
  // timing it characterizes is the SI SRAM macro.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(fig5_sram_logic_mismatch)
    .title("Fig. 5 — SRAM read delay in inverter units vs Vdd (Monte-Carlo)")
    .ref_csv("fig5_mismatch.csv")
    .ref_csv("fig5_mismatch_trials.csv")
    .shard_model("fig5_mismatch_trials.csv", "fig5_mismatch.csv",
                 fig5_aggregate)
    .lint(lint_fig5)
    .seed(5)
    .run(run_fig5);
