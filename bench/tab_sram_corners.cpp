// [8] follow-up — SI SRAM failure / corner analysis, replicated.
//
// Process corners as a typed string-valued exp::Workbench grid, now with
// a Monte-Carlo trial axis on top: each (corner, trial) scenario samples
// the section's worst cell from its counter-based seed stream and
// reports the *distribution* of the read floor and read delays at that
// corner — the corner spread (global) and the mismatch spread (local)
// composed, which is exactly what completion detection absorbs and what
// a bundled design would have to margin for at the worst corner AND the
// worst chip.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/aggregate.hpp"
#include "device/variation.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/replicated.hpp"
#include "sram/failure.hpp"
#include "sram/si_controller.hpp"

namespace {
constexpr std::size_t kTrials = 24;
constexpr std::size_t kSmokeTrials = 4;
constexpr double kVthSigma = 0.020;  // 20 mV local cell mismatch
constexpr std::uint64_t kCellBaseId = 0;

/// Trials -> distribution reduction (the figure's registered trial
/// model).
emc::analysis::Aggregate tab_sram_corners_aggregate() {
  return emc::analysis::Aggregate({"corner"})
      .stats("min_read_V")
      .stats("read@0.19V_us")
      .stats("ratio@0.19V")
      .precision(4);
}

}  // namespace

static int run_tab_sram_corners(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Table — SI SRAM corner & failure analysis (Monte-Carlo)");

  exp::Workbench wb("tab_sram_corners_trials");
  wb.threads(ctx.threads);
  // Grid axis AND per-corner tech both come from the producer's
  // corner_techs(), so a corner added or renamed in
  // sram::FailureAnalysis can neither silently drop out of the table
  // nor be computed at the wrong technology.
  std::vector<std::string> corner_names;
  for (const auto& [name, tech] : sram::FailureAnalysis::corner_techs()) {
    (void)tech;
    corner_names.push_back(name);
  }
  wb.grid().over("corner", corner_names);
  wb.replicate(ctx.trials_or(kTrials, kSmokeTrials), ctx.seed);
  wb.columns({"corner", "trial", "min_read_V", "min_write_V", "retention_V",
              "read@1V_ns", "read@0.19V_us", "ratio@1V", "ratio@0.19V"});

  const device::Variation variation = device::Variation::local(kVthSigma);

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const std::string corner = p.get<std::string>("corner");
    const device::VariationSampler sampler(variation,
                                           p.get<std::uint64_t>("trial_seed"));
    // Producer-owned corner data: the tech for the delay model, the
    // nominal per-corner report for the mismatch-free columns.
    device::Tech tech;
    bool found = false;
    for (const auto& [name, t] : sram::FailureAnalysis::corner_techs()) {
      if (name == corner) {
        tech = t;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("unknown corner: " + corner);
    sram::CornerReport nominal;
    for (const auto& c : sram::FailureAnalysis().corners()) {
      if (c.corner == corner) nominal = c;
    }
    device::DelayModel model(tech);
    sram::CellModel cell(model, sram::CellParams{});
    const sram::BitlineParams bp;
    sram::BitlineDynamics bl(cell, bp);

    // The worst sampled cell of the section gates sensing and the read.
    const double worst = sampler.worst_vth(kCellBaseId, bp.cells_per_section);
    rec.row()
        .set("corner", corner)
        .set("trial", p.get<int>("trial"))
        .set("min_read_V", cell.min_read_vdd(bp.cells_per_section, worst), 3)
        .set("min_write_V", nominal.min_write_vdd, 3)
        .set("retention_V", nominal.retention_vdd, 3)
        .set("read@1V_ns", bl.read_delay_seconds(1.0, worst) * 1e9, 4)
        .set("read@0.19V_us", bl.read_delay_seconds(0.19, worst) * 1e6, 4)
        .set("ratio@1V",
             bl.read_delay_seconds(1.0, worst) /
                 model.inverter_delay_seconds(1.0),
             4)
        .set("ratio@0.19V",
             bl.read_delay_seconds(0.19, worst) /
                 model.inverter_delay_seconds(0.19),
             4);
  };

  if (repro::run_replicated(ctx, "tab_sram_corners", wb, body) != 0) return 1;

  std::printf(
      "\nThe SI controller needs no corner-specific timing: completion "
      "detection absorbs\nthe full corner spread *and* the per-chip "
      "mismatch spread above (the bundled\nbaselines would need the slow "
      "corner's p95 margin and would waste it everywhere\nelse).\n");
  return 0;
}

static void lint_tab_sram_corners(emc::lint::Session& s) {
  // Corners change the tech parameters, not the controller structure —
  // one macro covers every corner.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(tab_sram_corners)
    .title("Table [8] — SRAM corner + mismatch distributions (Monte-Carlo)")
    .ref_csv("tab_sram_corners.csv")
    .ref_csv("tab_sram_corners_trials.csv")
    .shard_model("tab_sram_corners_trials.csv", "tab_sram_corners.csv",
                 tab_sram_corners_aggregate)
    .seed(8)
    .smoke_mode()
    .lint(lint_tab_sram_corners)
    .run(run_tab_sram_corners);
