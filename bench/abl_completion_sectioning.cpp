// Ablation (§III.A) — sectioning the column completion detection.
//
// "its low Vdd limit can be pushed further down in sub-threshold (below
// 0.3V) by sectioning the completion detection in the column into smaller
// segments, say, of 8 bit each." Section sizes form a typed integer grid
// on the exp::Workbench.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/workbench.hpp"
#include "gates/completion.hpp"
#include "lint/session.hpp"
#include "netlist/module.hpp"
#include "repro/registry.hpp"
#include "sram/failure.hpp"

static int run_abl_sectioning(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Ablation — completion-detection sectioning vs minimum read Vdd");

  exp::Workbench wb("abl_completion_sectioning");
  wb.threads(ctx.threads);
  wb.grid().over("cells_per_section", std::vector<int>{64, 32, 16, 8, 4});
  wb.columns({"cells_per_section", "min_read_vdd_V", "read_delay_at_0.3V_ns",
              "detector_overhead_x"});
  std::vector<double> min_vdd(wb.grid().size());

  wb.run([&](const exp::ParamSet& ps, exp::Recorder& rec) {
    const int cells = ps.get<int>("cells_per_section");
    sram::FailureAnalysis fa;
    const auto pts = fa.sectioning({static_cast<std::size_t>(cells)});
    const auto& p = pts.front();
    min_vdd[rec.index()] = p.min_read_vdd;
    rec.row()
        .set("cells_per_section", std::to_string(p.cells_per_section))
        .set("min_read_vdd_V", p.min_read_vdd, 4)
        .set("read_delay_at_0.3V_ns", p.read_delay_03v_s * 1e9, 4)
        .set("detector_overhead_x", p.completion_overhead_factor, 3);
  });
  wb.table().print();
  if (!wb.write_csv()) return 1;
  analysis::print_anchor("min Vdd with 8-cell sections (paper: below 0.3 V)",
                         0.30, min_vdd[3], "V");
  std::printf(
      "\nMechanism: smaller sections mean less bit-line capacitance and "
      "fewer leaking\ncells per detector, so the cell current dominates "
      "down to lower Vdd — at the\nprice of one completion detector per "
      "section.\n");
  return 0;
}

static void lint_abl_sectioning(emc::lint::Session& s) {
  // One 8-cell section's detector, elaborated structurally: the
  // OR-per-bit + C-element tree whose per-section cost the ablation
  // prices. The dual rails come from the (environment's) bit cells.
  emc::netlist::Circuit c(s.ctx(), "section");
  std::vector<emc::gates::DualRailWire> bits;
  for (int i = 0; i < 8; ++i) {
    emc::sim::Wire& t = c.wire("b" + std::to_string(i) + ".t");
    emc::sim::Wire& f = c.wire("b" + std::to_string(i) + ".f");
    c.mark_env_driven(t);
    c.mark_env_driven(f);
    bits.push_back({&t, &f});
  }
  emc::gates::CompletionDetector cd(c, "cd", bits);
  s.check(c);
}

REPRO_FIGURE(abl_completion_sectioning)
    .title("Ablation §III.A — completion-detection sectioning vs min read Vdd")
    .ref_csv("abl_completion_sectioning.csv")
    .lint(lint_abl_sectioning)
    .run(run_abl_sectioning);
