// §III.A numbers — SI SRAM energy per operation vs Vdd.
//
// Anchors: 5.8 pJ per 16-bit write at 1.0 V, 1.9 pJ at 0.4 V, minimum
// energy point reported at ~0.4 V. The model is calibrated to the two
// energy values; the minimum's location is then a model output.
//
// Each Vdd point is an independent analytic scenario on the
// exp::Workbench grid; the plot CSV is assembled in scenario order.
#include <cmath>
#include <cstdio>

#include "analysis/sweep.hpp"
#include "analysis/table.hpp"
#include "device/delay_model.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sram/bitline.hpp"
#include "sram/cell.hpp"
#include "sram/energy.hpp"
#include "sram/si_controller.hpp"

static int run_tab_sram_energy(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner("Table — SI SRAM energy per operation vs Vdd");

  // The historic grid skipped points below the 0.18 V write floor.
  std::vector<double> grid;
  for (double v : analysis::vdd_grid()) {
    if (v >= 0.18) grid.push_back(v);
  }

  exp::Workbench wb("tab_sram_energy");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", grid);
  wb.columns({"vdd_V", "write_dyn_pJ", "write_leak_pJ", "write_total_pJ",
              "read_total_pJ", "t_write_us"});
  struct Point {
    double write_pj = 0.0;
    double read_pj = 0.0;
  };
  std::vector<Point> points(wb.grid().size());

  wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    device::DelayModel model{device::Tech::umc90()};
    sram::CellModel cell(model, sram::CellParams{});
    sram::BitlineDynamics bitline(cell, sram::BitlineParams{});
    sram::SramEnergyModel energy(bitline, sram::SramPhaseTimings{},
                                 sram::SramEnergyAnchors{});
    const double dyn = energy.dynamic_write_j(v);
    const double tot = energy.energy_per_write(v);
    points[rec.index()] = {tot * 1e12, energy.energy_per_read(v) * 1e12};
    rec.row()
        .set("vdd_V", v)
        .set("write_dyn_pJ", dyn * 1e12, 4)
        .set("write_leak_pJ", (tot - dyn) * 1e12, 4)
        .set("write_total_pJ", tot * 1e12, 4)
        .set("read_total_pJ", energy.energy_per_read(v) * 1e12, 4)
        .set("t_write_us", energy.write_time_s(v) * 1e6, 4);
  });
  wb.table().print();

  analysis::Table csv({"vdd_V", "write_pJ", "read_pJ"});
  const auto& scenarios = wb.scenario_params();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    csv.add_row({analysis::Table::num(scenarios[i].get<double>("vdd"), 6),
                 analysis::Table::num(points[i].write_pj, 6),
                 analysis::Table::num(points[i].read_pj, 6)});
  }
  if (!csv.write_csv("tab_sram_energy.csv")) return 1;

  device::DelayModel model{device::Tech::umc90()};
  sram::CellModel cell(model, sram::CellParams{});
  sram::BitlineDynamics bitline(cell, sram::BitlineParams{});
  sram::SramEnergyModel energy(bitline, sram::SramPhaseTimings{},
                               sram::SramEnergyAnchors{});
  const double v_min = energy.min_energy_vdd();
  analysis::print_anchor("energy per 16-bit write at 1.0 V", 5.8,
                         energy.energy_per_write(1.0) * 1e12, "pJ");
  analysis::print_anchor("energy per 16-bit write at 0.4 V", 1.9,
                         energy.energy_per_write(0.4) * 1e12, "pJ");
  analysis::print_anchor("minimum-energy Vdd", 0.4, v_min, "V");
  std::printf(
      "\nShape: U-curve — CV^2 dynamic term falls with Vdd until "
      "exponentially growing\nleakage x latency takes over. Model minimum "
      "at %.2f V, %.2f pJ (paper: 0.4 V);\nsee EXPERIMENTS.md for the "
      "discussion of the %.0f mV offset.\n",
      v_min, energy.energy_per_write(v_min) * 1e12,
      std::fabs(v_min - 0.4) * 1000.0);
  return 0;
}

static void lint_tab_sram_energy(emc::lint::Session& s) {
  // The energy model is analytic, but its phase timings are the SI
  // controller's handshake sequence — lint the structure they describe.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(tab_sram_energy)
    .title("Table §III.A — SRAM energy per op vs Vdd (U-curve, 0.4 V minimum)")
    .ref_csv("tab_sram_energy.csv")
    .lint(lint_tab_sram_energy)
    .run(run_tab_sram_energy);
