// Figs. 6/7 — speed-independent SRAM operating under varying Vdd.
//
// Part 1 sweeps fixed operating points through the exp::Workbench grid:
// each Vdd is an independent scenario (fresh kernel + SI SRAM, context
// declared as an exp::ContextConfig) doing a write/read pair, showing
// the same op taking microseconds at 0.25 V and nanoseconds at 1 V,
// always completing correctly. Part 2 keeps the paper's ramp
// demonstration (0.25 V -> 1.0 V plus an AC-like dip) on a single
// kernel — a piecewise SupplyConfig — and dumps the handshake trace as
// VCD (Fig. 6's pch/wl/we/done wires).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sim/trace.hpp"
#include "sram/si_controller.hpp"

namespace {

using namespace emc;

struct OpPair {
  double write_latency_s = 0.0;
  double write_energy_j = 0.0;
  double read_latency_s = 0.0;
  double read_energy_j = 0.0;
  bool ok = false;
};

// One operating point: fresh kernel, battery at `vdd`, one write + read.
OpPair measure_point(double vdd, sim::Kernel::Stats* stats) {
  auto ex = exp::ContextConfig::battery(vdd).build();
  sram::SiSram sram(ex.ctx(), "sram", sram::SiSramParams{});

  OpPair out;
  bool w_ok = false, r_ok = false;
  sram.write(1, 0x5a5a, [&](const sram::OpResult& r) {
    out.write_latency_s = r.latency_s;
    out.write_energy_j = r.energy_j;
    w_ok = r.ok;
    sram.read(1, [&](std::uint16_t val, const sram::OpResult& rr) {
      out.read_latency_s = rr.latency_s;
      out.read_energy_j = rr.energy_j;
      r_ok = rr.ok && val == 0x5a5a;
    });
  });
  ex.kernel().run_until(sim::ms(1));
  out.ok = w_ok && r_ok;
  *stats += ex.kernel().stats();
  return out;
}

}  // namespace

static int run_fig7(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Fig. 7 — SI SRAM under varying Vdd (sweep + ramp demo)");

  // Part 1: operating-point sweep, one kernel per Vdd.
  exp::Workbench wb("fig7_sram_varying_vdd");
  wb.threads(ctx.threads);
  wb.grid().over("vdd", {0.25, 0.3, 0.4, 0.6, 0.8, 1.0});
  wb.columns({"vdd_V", "write_latency_us", "write_pJ", "read_latency_us",
              "read_pJ", "completed_ok"});
  std::vector<OpPair> points(wb.grid().size());

  const auto& report = wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double v = p.get<double>("vdd");
    sim::Kernel::Stats stats;
    const OpPair pt = measure_point(v, &stats);
    points[rec.index()] = pt;
    rec.row()
        .set("vdd_V", v, 3)
        .set("write_latency_us", pt.write_latency_s * 1e6, 4)
        .set("write_pJ", pt.write_energy_j * 1e12, 3)
        .set("read_latency_us", pt.read_latency_s * 1e6, 4)
        .set("read_pJ", pt.read_energy_j * 1e12, 3)
        .set("completed_ok", pt.ok ? "yes" : "NO");
    rec.add_stats(stats);
  });
  report.table.print();
  if (!wb.write_csv()) return 1;
  report.print_summary();

  const double lat_low = points.front().write_latency_s;
  const double lat_high = points.back().write_latency_s;
  std::printf(
      "\nPaper shape: same op, same data path — %.0fx slower at 0.25 V than "
      "at 1 V,\nboth correct (no timing assumption broke).\n",
      lat_high > 0 ? lat_low / lat_high : 0.0);

  // Part 2: the ramp demonstration with the VCD handshake trace.
  auto ex = exp::ContextConfig::with(exp::SupplyConfig::piecewise(
                                         {{0, 0.25},
                                          {sim::us(40), 0.25},
                                          {sim::us(45), 1.0},
                                          {sim::us(80), 1.0},
                                          {sim::us(85), 0.4},
                                          {sim::us(120), 0.4}}))
                .build();
  sim::Kernel& kernel = ex.kernel();
  supply::Supply& ramp = ex.supply();
  sram::SiSram sram(ex.ctx(), "sram", sram::SiSramParams{});

  sim::VcdWriter vcd("fig7_sram_handshakes.vcd");
  vcd.add(sram.w_req());
  vcd.add(sram.w_ack());
  vcd.add(sram.w_pch());
  vcd.add(sram.w_wl());
  vcd.add(sram.w_we());
  vcd.add(sram.w_done());

  struct Row {
    const char* what;
    double at_v;
    double latency_s;
    bool ok;
  };
  std::vector<Row> rows;
  auto do_write = [&](const char* tag, std::size_t addr, std::uint16_t val) {
    const double v = ramp.voltage();
    sram.write(addr, val, [&rows, tag, v](const sram::OpResult& r) {
      rows.push_back({tag, v, r.latency_s, r.ok});
    });
  };
  auto do_read = [&](const char* tag, std::size_t addr) {
    const double v = ramp.voltage();
    sram.read(addr, [&rows, tag, v](std::uint16_t, const sram::OpResult& r) {
      rows.push_back({tag, v, r.latency_s, r.ok});
    });
  };
  // Ramp bursts: low, high, and the 0.4 V minimum-energy point. Reads
  // ride the varying supply too — the paper's Fig. 6 scenario is the
  // handshake completing mid-ramp, not just at fixed operating points.
  do_write("write@low", 1, 0x1111);
  do_read("read@low", 1);
  kernel.schedule_at(sim::us(50), [&] {
    do_write("write@high", 2, 0x2222);
    do_read("read@high", 2);
  });
  kernel.schedule_at(sim::us(90), [&] {
    do_write("write@0.4V", 3, 0x3333);
    do_read("read@0.4V", 3);
  });
  kernel.run_until(sim::us(200));
  if (!vcd.finalize()) return 1;

  std::printf("\nRamp demo (single kernel, supply varies mid-op):\n");
  for (const auto& r : rows) {
    std::printf("  %-12s at %.2f V: %8.3f us  %s\n", r.what, r.at_v,
                r.latency_s * 1e6, r.ok ? "ok" : "FAILED");
  }
  std::printf("Handshake trace: fig7_sram_handshakes.vcd\n");
  ctx.add_stats(report.kernel_stats);
  ctx.add_stats(kernel.stats());
  return 0;
}

static void lint_fig7(emc::lint::Session& s) {
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(fig7_sram_varying_vdd)
    .title("Fig. 7 — SI SRAM across Vdd: sweep + mid-ramp handshake demo")
    .ref_csv("fig7_sram_varying_vdd.csv")
    .artifact("fig7_sram_handshakes.vcd")
    .lint(lint_fig7)
    .run(run_fig7);
