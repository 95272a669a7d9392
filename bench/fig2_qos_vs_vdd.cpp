// Fig. 2 — power-proportional vs power-efficient design.
//
// Sweeps Vdd and measures, for Design 1 (SI dual-rail counter with
// completion detection) and Design 2 (bundled-data counter), the QoS
// (correct increments/s) and power. Reports each design's delivery
// threshold, the efficiency crossover, and the hybrid envelope — the
// paper's recommended combination.
//
// Every Vdd point is an independent scenario (fresh kernels, fresh
// counters) described by a typed exp::ParamSet and run through the
// exp::Workbench grid; the QoS curves are then assembled serially in
// grid order, so the analysis below is identical at any
// EMC_SWEEP_THREADS.
#include <cstdio>

#include "analysis/sweep.hpp"
#include "async/bundled.hpp"
#include "async/counter.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "power/qos.hpp"
#include "repro/registry.hpp"

namespace {

using namespace emc;

power::QosPoint measure_dualrail(double vdd, sim::Kernel::Stats* stats) {
  auto ex = exp::ContextConfig::battery(vdd).build();
  async::DualRailCounter ctr(ex.ctx(), "drc", 2);
  ctr.start();
  const sim::Time horizon = vdd < 0.3 ? sim::us(60) : sim::us(6);
  ex.kernel().run_until(horizon);
  ex.meter()->integrate_leakage();
  power::QosPoint p;
  p.vdd = vdd;
  const double secs = sim::to_seconds(horizon);
  const std::uint64_t good = ctr.count() - ctr.code_errors();
  p.qos = double(good) / secs;
  p.power_w = ex.meter()->total_energy() / secs;
  p.error_rate =
      ctr.count() > 0 ? double(ctr.code_errors()) / double(ctr.count()) : 1.0;
  *stats += ex.kernel().stats();
  return p;
}

power::QosPoint measure_bundled(double vdd, sim::Kernel::Stats* stats) {
  auto ex = exp::ContextConfig::battery(vdd).build();
  async::BundledCounter ctr(ex.ctx(), "bc", async::BundledParams{});
  ctr.start();
  const sim::Time horizon = vdd < 0.3 ? sim::us(60) : sim::us(6);
  ex.kernel().run_until(horizon);
  ex.meter()->integrate_leakage();
  power::QosPoint p;
  p.vdd = vdd;
  const double secs = sim::to_seconds(horizon);
  const std::uint64_t good =
      ctr.count() > ctr.errors() ? ctr.count() - ctr.errors() : 0;
  p.qos = double(good) / secs;
  p.power_w = ex.meter()->total_energy() / secs;
  p.error_rate =
      ctr.count() > 0 ? double(ctr.errors()) / double(ctr.count()) : 1.0;
  *stats += ex.kernel().stats();
  return p;
}

struct PointPair {
  power::QosPoint d1;
  power::QosPoint d2;
};

}  // namespace

static int run_fig2(const emc::repro::RunContext& ctx) {
  analysis::print_banner("Fig. 2 — QoS vs Vdd: Design 1 (SI dual-rail) vs "
                         "Design 2 (bundled data) vs hybrid");

  exp::Workbench wb("fig2_qos_vs_vdd");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", analysis::vdd_grid());
  wb.columns({"vdd_V", "d1_qos_ops_s", "d1_eff_ops_uJ", "d2_qos_ops_s",
              "d2_eff_ops_uJ", "d2_err_rate", "winner"});
  std::vector<PointPair> points(wb.grid().size());

  const auto& report = wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    sim::Kernel::Stats stats;
    const auto p1 = measure_dualrail(v, &stats);
    const auto p2 = measure_bundled(v, &stats);
    points[rec.index()] = {p1, p2};
    const bool d2_ok = p2.error_rate < 0.01;
    const char* winner =
        !d2_ok ? (p1.qos > 0 ? "design1" : "-")
               : (p2.qos_per_watt() > p1.qos_per_watt() ? "design2"
                                                        : "design1");
    rec.row()
        .set("vdd_V", v)
        .set("d1_qos_ops_s", p1.qos, 4)
        .set("d1_eff_ops_uJ", p1.qos_per_watt() * 1e-6, 4)
        .set("d2_qos_ops_s", p2.qos, 4)
        .set("d2_eff_ops_uJ", p2.qos_per_watt() * 1e-6, 4)
        .set("d2_err_rate", p2.error_rate, 3)
        .set("winner", winner);
    rec.add_stats(stats);
  });
  report.table.print();
  if (!wb.write_csv()) return 1;
  report.print_summary();

  // Curves are rebuilt in grid order, so every threshold below is
  // independent of how the sweep was scheduled.
  power::QosCurve d1;  // design 1: dual-rail
  power::QosCurve d2;  // design 2: bundled
  for (const auto& pp : points) {
    d1.add(pp.d1);
    d2.add(pp.d2);
  }

  const double min_qos = 1e4;  // "the sought QoS": 10k correct ops/s
  const auto th1 = d1.delivery_threshold(min_qos);
  const auto th2 = d2.delivery_threshold(min_qos);
  const auto cross = power::efficiency_crossover(d1, d2);
  std::printf("\nDelivery threshold (QoS >= 1e4 ops/s, error-free):\n");
  std::printf("  Design 1 (dual-rail): %.2f V — delivers at very low Vdd\n",
              th1.value_or(-1.0));
  std::printf("  Design 2 (bundled)  : %.2f V — cannot deliver below this\n",
              th2.value_or(-1.0));
  if (cross) {
    std::printf("Efficiency crossover (Design 2 wins QoS/W above): %.2f V\n",
                *cross);
  }
  const auto h = power::hybrid_envelope(d1, d2);
  std::printf(
      "Hybrid envelope: Design 1 below the crossover, Design 2 above — "
      "e.g. hybrid QoS at 0.25 V = %.3g ops/s, at 1.0 V = %.3g ops/s.\n",
      h.at(0.25).qos, h.at(1.0).qos);
  std::printf(
      "\nPaper shape check: Design 1 more power-proportional (works from "
      "~%.2f V),\nDesign 2 more power-efficient at nominal "
      "(%.1fx QoS/W at 1.0 V).\n",
      th1.value_or(0.0),
      d2.at(1.0).qos_per_watt() / d1.at(1.0).qos_per_watt());
  ctx.add_stats(report.kernel_stats);
  return 0;
}

static void lint_fig2(emc::lint::Session& s) {
  emc::async::DualRailCounter drc(s.ctx(), "drc", 2);
  s.check(drc.circuit());
  emc::async::BundledCounter bc(s.ctx(), "bc", emc::async::BundledParams{});
  // The figure sweeps the whole vdd_grid(); the bundled counter's margin
  // genuinely collapses partway down that range — that collapse IS the
  // figure (QoS melting below the critical voltage), so the static
  // timing findings are expected and waived here, not fixed.
  bc.circuit().declare_operating_range(0.15, 1.10);
  bc.circuit().suppress("T001", "bc.bundle",
                        "the margin collapse below ~0.55 V is the subject of "
                        "this figure: Fig. 2 plots exactly the QoS cliff this "
                        "violation predicts");
  bc.circuit().suppress("T003", "bc",
                        "the figure deliberately sweeps beyond the bundled "
                        "design's functional floor to record where and how "
                        "it fails");
  s.check(bc.circuit());
}

REPRO_FIGURE(fig2_qos_vs_vdd)
    .title("Fig. 2 — QoS vs Vdd: SI dual-rail vs bundled data vs hybrid")
    .ref_csv("fig2_qos_vs_vdd.csv")
    .lint(lint_fig2)
    .run(run_fig2);
