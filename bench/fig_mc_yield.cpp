// Monte-Carlo yield — SRAM + logic survival vs Vdd under process
// variation (the paper's Fig. 5 mismatch story, made quantitative).
//
// The paper argues that SRAM and logic scale *differently* with Vdd and
// that mismatch decides where each stops working. This bench replicates
// every Vdd point over N virtual chips (exp::Workbench::replicate): each
// trial samples, from its counter-based seed stream,
//   * a 64-cell SRAM column (worst cell gates the read: the completion
//     detector waits for the slowest bit),
//   * a 16-stage logic path (per-gate Vth + strength draws; the path is
//     the sum of its sampled stage delays),
// and decides three pass/fail verdicts at that Vdd. None of the draws
// depends on Vdd, so each chip is drawn once, before the sweep
// (exp::Workbench::per_trial: the column's worst Vth and the 16 stage
// samples), and every Vdd row reuses it; the row body only evaluates
// the path's stage delays at its Vdd. The verdicts:
//   * sram_ok  — the worst cell is still sensable against the section's
//     aggregate bit-line leakage, and writes succeed,
//   * logic_ok — the sampled path is no slower than kLogicMargin x the
//     nominal path (a bundled-data design's timing margin),
//   * chip_ok  — both.
// analysis::Aggregate folds the trials into yield-vs-Vdd curves plus the
// path-delay spread. Determinism contract: byte-identical CSVs at any
// EMC_SWEEP_THREADS, and trial t is the same virtual chip at every Vdd.
// Memory: O(grid points) for the streamed rows plus 264 B per trial for
// the chip table.
#include <array>
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

constexpr std::size_t kTrials = 60;
constexpr std::size_t kLogicStages = 16;
constexpr std::size_t kSramCells = 64;
/// Timing margin of the hypothetical bundled design: a sampled path
/// slower than this factor over nominal misses its replica window.
constexpr double kLogicMargin = 1.25;
/// Local mismatch: 30 mV Vth sigma (90 nm-class minimum devices), 5%
/// strength sigma.
constexpr double kVthSigma = 0.030;
constexpr double kStrengthSigma = 0.05;

/// Instance-id layout of one virtual chip: logic stages first, then the
/// SRAM column. Fixed ids are what make samples independent of
/// evaluation order.
constexpr std::uint64_t kLogicBaseId = 0;
constexpr std::uint64_t kSramBaseId = 1000;

/// One virtual chip: everything a trial draws, none of it Vdd-dependent.
struct Chip {
  double column_worst_vth = 0.0;  // the SRAM column's worst cell
  std::array<emc::device::DeviceSample, kLogicStages> path;  // logic stages
};

/// The trials -> yield-curve reduction (the figure's registered trial
/// model).
emc::analysis::Aggregate fig_mc_yield_aggregate() {
  return emc::analysis::Aggregate({"vdd_V"})
      .stats("path_ratio")
      .yield("sram_ok")
      .yield("logic_ok")
      .yield("chip_ok");
}

}  // namespace

static int run_fig_mc_yield(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Monte-Carlo yield — SRAM + logic survival vs Vdd under variation");

  exp::Workbench wb("fig_mc_yield_trials");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", analysis::vdd_grid());
  wb.replicate(ctx.trials_or(kTrials), ctx.seed);
  wb.columns({"vdd_V", "trial", "path_ratio", "worst_vth_mV", "sram_ok",
              "logic_ok", "chip_ok"});

  const device::Variation variation =
      device::Variation::local(kVthSigma, kStrengthSigma);
  // Read-only, shared by every row on every worker.
  const device::DelayModel model{device::Tech::umc90()};
  const sram::CellModel cell(model, sram::CellParams{});

  const std::vector<Chip> chips = wb.per_trial([&](std::uint64_t seed) {
    const device::VariationSampler sampler(variation, seed);
    Chip chip;
    chip.column_worst_vth = sampler.worst_vth(kSramBaseId, kSramCells);
    for (std::size_t i = 0; i < kLogicStages; ++i) {
      chip.path[i] = sampler.sample(kLogicBaseId + i);
    }
    return chip;
  });

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    const int trial = p.get<int>("trial");
    const Chip& chip = chips[static_cast<std::size_t>(trial)];

    // Logic path: nominal vs sampled stage-by-stage delay.
    const double nominal_path =
        static_cast<double>(kLogicStages) * model.inverter_delay_seconds(v);
    double sampled_path = 0.0;
    for (const device::DeviceSample& d : chip.path) {
      sampled_path += model.delay_seconds(v, model.tech().c_inv, d);
    }
    const double path_ratio = sampled_path / nominal_path;
    const bool logic_ok = model.operational(v) && path_ratio <= kLogicMargin;

    // SRAM column: the slowest sampled cell must still beat the leakage
    // of the whole section, and the cell must be writable.
    const double worst_vth = chip.column_worst_vth;
    const bool sram_ok = cell.sensable(v, kSramCells, worst_vth) &&
                         cell.write_ok(v) &&
                         model.operational(v);

    rec.row()
        .set("vdd_V", v)
        .set("trial", trial)
        .set("path_ratio", path_ratio, 4)
        .set("worst_vth_mV", worst_vth * 1e3, 4)
        .set("sram_ok", sram_ok ? 1 : 0)
        .set("logic_ok", logic_ok ? 1 : 0)
        .set("chip_ok", (sram_ok && logic_ok) ? 1 : 0);
  };

  if (repro::run_replicated(ctx, "fig_mc_yield", wb, body) != 0) return 1;

  std::printf(
      "\nReading: SRAM yield collapses well above the logic floor (the\n"
      "elevated cell stack threshold + worst-of-%zu mismatch), while logic\n"
      "under a %.0f%% bundling margin dies from the Vth tail — completion\n"
      "detection would track each chip's own speed instead. Yield curves\n"
      "written to fig_mc_yield.csv (raw trials: fig_mc_yield_trials.csv).\n",
      kSramCells, (kLogicMargin - 1.0) * 100.0);
  return 0;
}

static void lint_fig_mc_yield(emc::lint::Session& s) {
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(fig_mc_yield)
    .title("MC yield — SRAM + logic survival vs Vdd over 60 virtual chips")
    .ref_csv("fig_mc_yield.csv")
    .ref_csv("fig_mc_yield_trials.csv")
    .shard_model("fig_mc_yield_trials.csv", "fig_mc_yield.csv",
                 fig_mc_yield_aggregate)
    .lint(lint_fig_mc_yield)
    .seed(2026)
    .run(run_fig_mc_yield);
