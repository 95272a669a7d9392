// Ablation (§III.A / [8]) — SRAM timing schemes across the Vdd range.
//
// fixed inverter replica vs banded replicas (needs a voltage reference)
// vs duplicated-column "smart latency bundling" vs genuine completion
// detection: failure onset and timing overhead of each. The schemes are
// a typed string grid on the exp::Workbench; each scenario elaborates
// its own battery context from an exp::ContextConfig.
#include <cstdio>

#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sram/bundled_sram.hpp"
#include "sram/si_controller.hpp"

static int run_abl_bundling(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Ablation — SRAM timing schemes: replica variants vs completion "
      "detection");

  exp::Workbench wb("abl_bundling_schemes");
  wb.threads(ctx.threads);
  wb.grid().over("scheme", std::vector<std::string>{
                               "fixed-replica", "banded-replica",
                               "column-replica [8]",
                               "completion detection [7]"});
  wb.columns({"scheme", "fails_below_V", "wait_overhead_1V",
              "wait_overhead_0.3V", "needs_reference"});
  double fixed_onset = 0.0;

  wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const std::string scheme = p.get<std::string>("scheme");
    if (scheme == "completion detection [7]") {
      // Not a replica: completion detection tracks the data itself, so
      // its row is definitional rather than measured.
      rec.row()
          .set("scheme", scheme)
          .set("fails_below_V", "never (tracks truth)")
          .set("wait_overhead_1V", "1.0")
          .set("wait_overhead_0.3V", "1.0")
          .set("needs_reference", "no");
      return;
    }
    sram::BundledSramParams params;
    const char* needs_ref = "no";
    if (scheme == "banded-replica") {
      params.scheme = sram::BundlingScheme::kBandedReplica;
      needs_ref = "YES (band select)";
    } else if (scheme == "column-replica [8]") {
      params.scheme = sram::BundlingScheme::kColumnReplica;
    }
    auto ex = exp::ContextConfig::battery(1.0).build();
    sram::BundledSram s(ex.ctx(), params);
    if (scheme == "fixed-replica") fixed_onset = s.failure_onset_vdd();
    auto overhead = [&](double v) {
      return s.replica_delay_s(v) / s.true_read_delay_s(v);
    };
    rec.row()
        .set("scheme", scheme)
        .set("fails_below_V", s.failure_onset_vdd(), 3)
        .set("wait_overhead_1V", overhead(1.0), 3)
        .set("wait_overhead_0.3V", overhead(0.3), 3)
        .set("needs_reference", needs_ref);
    rec.add_stats(ex.kernel().stats());
  });
  wb.table().print();
  if (!wb.write_csv()) return 1;

  std::printf(
      "\nThe fixed replica dies at %.2f V; banding survives lower but "
      "imports the voltage\nreference the paper wants to eliminate; the "
      "column replica tracks but wastes a\ncolumn and still guards with "
      "margin. Genuine completion detection waits exactly\nas long as "
      "the data needs — at any voltage.\n",
      fixed_onset);
  ctx.add_stats(wb.report().kernel_stats);
  return 0;
}

static void lint_abl_bundling(emc::lint::Session& s) {
  // The completion-detection contender is the SI macro; the replica
  // schemes are analytic timing models with no gate netlist of their own.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(abl_bundling_schemes)
    .title("Ablation [8] — replica timing schemes vs completion detection")
    .ref_csv("abl_bundling_schemes.csv")
    .lint(lint_abl_bundling)
    .run(run_abl_bundling);
