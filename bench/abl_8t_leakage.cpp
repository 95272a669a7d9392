// Ablation (§III.A) — 6T vs 8T cells.
//
// "leakage power can be reduced by switching to 8T cells (with two NMOS
// transistors in stack)." Each Vdd point is a scenario on the
// exp::Workbench grid.
#include <cstdio>

#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sram/failure.hpp"
#include "sram/si_controller.hpp"

static int run_abl_8t(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner("Ablation — 6T vs 8T cell bit-line leakage");

  exp::Workbench wb("abl_8t_leakage");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", {0.2, 0.3, 0.4, 0.6, 0.8, 1.0});
  wb.columns({"vdd_V", "column_leak_6T_nW", "column_leak_8T_nW",
              "reduction_x", "min_read_6T_V", "min_read_8T_V"});
  std::vector<double> reduction(wb.grid().size());

  wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    sram::FailureAnalysis fa;
    const auto rows = fa.compare_cells({v});
    const auto& r = rows.front();
    reduction[rec.index()] = r.leak_6t_w / r.leak_8t_w;
    rec.row()
        .set("vdd_V", r.vdd)
        .set("column_leak_6T_nW", r.leak_6t_w * 1e9, 4)
        .set("column_leak_8T_nW", r.leak_8t_w * 1e9, 4)
        .set("reduction_x", r.leak_6t_w / r.leak_8t_w, 3)
        .set("min_read_6T_V", r.min_read_6t, 3)
        .set("min_read_8T_V", r.min_read_8t, 3);
  });
  wb.table().print();
  if (!wb.write_csv()) return 1;
  std::printf(
      "\nThe stacked read path cuts bit-line leakage ~%.1fx, which both "
      "saves retention\npower and lowers the sensable Vdd floor (deeper "
      "voltage range for the same array).\n",
      reduction.front());
  return 0;
}

static void lint_abl_8t(emc::lint::Session& s) {
  // The cell choice changes leakage numbers, not the macro's structure.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(abl_8t_leakage)
    .title("Ablation §III.A — 6T vs 8T cell bit-line leakage across Vdd")
    .ref_csv("abl_8t_leakage.csv")
    .lint(lint_abl_8t)
    .run(run_abl_8t);
