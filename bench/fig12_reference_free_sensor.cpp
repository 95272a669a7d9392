// Fig. 12 / §III.C — reference-free voltage sensor.
//
// SRAM-cell read races an inverter-chain ruler; the completion event
// freezes a thermometer code. Sweeps 0.19-1.0 V, calibrates, verifies on
// an offset grid, and runs a Monte-Carlo mismatch analysis. Anchors:
// works over 0.2-1 V; ~10 mV accuracy; codes are the Fig. 5 ratio.
//
// Each reading elaborates a fresh battery context from an
// exp::ContextConfig; the calibration / verification grids are typed
// exp::Grids. Readings are serial — the calibration table is built in
// grid order.
#include <cstdio>
#include <optional>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sensor/calibration.hpp"
#include "sensor/reference_free.hpp"
#include "sensor/ring_oscillator.hpp"

namespace {

using namespace emc;

// One reading on a fresh kernel; its execution stats fold into `ctx`.
std::optional<sensor::RefFreeReading> read_at(
    const repro::RunContext& ctx, double vdd, int seed = 0,
    double sigma = 0.0) {
  auto ex = exp::ContextConfig::battery(vdd).build();
  sensor::RefFreeParams p;
  sim::Rng rng(seed == 0 ? 1 : seed);
  if (sigma > 0.0) {
    p.ruler_vth_sigma = sigma;
    p.cell_vth_offset = rng.gaussian(0.0, sigma);
  }
  sensor::ReferenceFreeSensor sensor(ex.ctx(), "rf", p,
                                     sigma > 0.0 ? &rng : nullptr);
  std::optional<sensor::RefFreeReading> out;
  sensor.measure([&](const sensor::RefFreeReading& r) { out = r; });
  ex.kernel().run_until(sim::ms(40));
  ctx.add_stats(ex.kernel().stats());
  return out;
}

// `lo` upward in `step` increments while <= hi (the benches' historic
// accumulating-double loops, preserved bit-for-bit).
std::vector<double> stepped(double lo, double hi, double step) {
  std::vector<double> out;
  for (double v = lo; v <= hi; v += step) out.push_back(v);
  return out;
}

}  // namespace

static int run_fig12(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Fig. 12 — reference-free voltage sensor (SRAM vs inverter-chain race)");

  exp::Grid cal_grid;
  cal_grid.over("vdd", stepped(0.19, 1.001, 0.03));

  sensor::CalibrationTable table_lut;
  analysis::Table table({"vdd_V", "thermometer_code", "mV_per_code"});
  analysis::Table csv({"vdd_V", "code"});
  double prev_code = 0.0, prev_v = 0.0;
  for (const auto& p : cal_grid.build()) {
    const double v = p.get<double>("vdd");
    const auto r = read_at(ctx, v);
    if (!r || !r->valid) {
      table.add_row({analysis::Table::num(v), "(not sensable)", "-"});
      continue;
    }
    const double code = double(r->code);
    const double sens =
        prev_code > 0.0 ? 1000.0 * (v - prev_v) / (prev_code - code) : 0.0;
    table.add_row({analysis::Table::num(v), std::to_string(r->code),
                   prev_code > 0.0 ? analysis::Table::num(sens, 3) : "-"});
    csv.add_row({analysis::Table::num(v, 6), analysis::Table::num(code, 6)});
    table_lut.add(code, v);
    prev_code = code;
    prev_v = v;
  }
  table.print();
  if (!csv.write_csv("fig12_refree.csv")) return 1;

  // Accuracy: verify on an offset grid.
  exp::Grid verify_grid;
  verify_grid.over("vdd", stepped(0.215, 0.986, 0.045));
  std::vector<std::pair<double, double>> verification;
  for (const auto& p : verify_grid.build()) {
    const double v = p.get<double>("vdd");
    const auto r = read_at(ctx, v);
    if (r && r->valid) verification.emplace_back(double(r->code), v);
  }
  const auto rep = sensor::evaluate_accuracy(table_lut, verification);
  std::printf("\nCalibrated inversion over 0.2-1.0 V (%zu verification "
              "points):\n  mean |error| %.1f mV, rms %.1f mV, worst %.1f mV\n",
              rep.samples, rep.mean_abs_error_v * 1e3, rep.rms_error_v * 1e3,
              rep.max_abs_error_v * 1e3);
  analysis::print_anchor("sensor accuracy (mean abs)", 0.010,
                         rep.mean_abs_error_v, "V");
  analysis::print_anchor("code at 1.0 V (Fig. 5 ratio)", 50.0,
                         double(read_at(ctx, 1.0)->code), "taps");
  analysis::print_anchor("code at 0.19 V (Fig. 5 ratio)", 158.0,
                         double(read_at(ctx, 0.19)->code), "taps");

  // Monte-Carlo mismatch: 10 mV sigma on ruler + cell.
  analysis::Accumulator spread;
  for (int seed = 1; seed <= 10; ++seed) {
    const auto r = read_at(ctx, 0.5, seed, 0.010);
    if (r && r->valid) spread.add(double(r->code));
  }
  std::printf(
      "\nMonte-Carlo (sigma_Vth = 10 mV, 10 dies) at 0.5 V: code %.1f +/- "
      "%.1f taps\n  -> per-die calibration absorbs the offset; residual "
      "noise ~%.1f mV.\n",
      spread.mean(), spread.stddev(),
      spread.stddev() * 4.0 /* ~mV per tap at 0.5 V */);
  std::printf(
      "No analog circuits, no time or voltage reference: the voltage is "
      "read as a digital code.\n");
  return 0;
}

static void lint_fig12(emc::lint::Session& s) {
  emc::sensor::ReferenceFreeSensor rf(s.ctx(), "rf",
                                      emc::sensor::RefFreeParams{});
  s.check(rf.circuit());
  // The published baseline the figure argues against — its deliberate
  // combinational ring carries a C001 suppression at the build site.
  emc::sensor::RingOscillatorSensor ro(s.ctx(), "ro",
                                       emc::sensor::RingOscParams{});
  s.check(ro.circuit());
}

REPRO_FIGURE(fig12_reference_free_sensor)
    .title("Fig. 12 — reference-free voltage sensor: calibration + accuracy")
    .ref_csv("fig12_refree.csv")
    .lint(lint_fig12)
    .run(run_fig12);
