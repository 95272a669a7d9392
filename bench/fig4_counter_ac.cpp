// Fig. 4 — 2-bit dual-rail counter under AC supply 200 mV +/- 100 mV,
// 1 MHz.
//
// Reproduces the waveform experiment: the counter's activity follows the
// supply phase (fast near crests, stalled in troughs), the count is
// always correct, and a VCD trace of the rails/done wires is written for
// inspection. A bundled-data counter on the same supply is shown for
// contrast: it keeps "running" but its captures are garbage at these
// voltages. Both stacks are declared as exp::ContextConfig descriptors
// (the AC SupplyConfig variant) — the experiment itself is a
// time-marching single-kernel run, not a sweep.
#include <cstdio>

#include "analysis/table.hpp"
#include "async/bundled.hpp"
#include "async/checker.hpp"
#include "async/counter.hpp"
#include "exp/context_config.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sim/trace.hpp"

static int run_fig4(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Fig. 4 — dual-rail counter under AC supply 200mV +/- 100mV @ 1 MHz");

  const exp::ContextConfig cfg =
      exp::ContextConfig::with(exp::SupplyConfig::ac(0.2, 0.1, 1e6));
  auto ex = cfg.build();
  const supply::AcSupply& ac = *ex.ac();
  sim::Kernel& kernel = ex.kernel();

  async::DualRailCounter ctr(ex.ctx(), "drc", 2);
  async::DualRailChecker checker(ctr.rails().bits());

  sim::VcdWriter vcd("fig4_counter_ac.vcd");
  for (std::size_t i = 0; i < 2; ++i) {
    vcd.add(*ctr.rails().bit(i).t);
    vcd.add(*ctr.rails().bit(i).f);
  }
  vcd.add(ctr.done());

  ctr.start();

  // Per-AC-phase activity histogram: increments completed in each eighth
  // of the supply period, accumulated over 50 cycles.
  constexpr int kBins = 8;
  std::uint64_t by_phase[kBins] = {0};
  std::uint64_t last_count = 0;
  const sim::Time period = ac.period();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int bin = 0; bin < kBins; ++bin) {
      kernel.run_until((cycle * kBins + bin + 1) * (period / kBins));
      by_phase[bin] += ctr.count() - last_count;
      last_count = ctr.count();
    }
  }
  if (!vcd.finalize()) return 1;

  analysis::Table table({"phase_of_period", "vdd_at_center_V",
                         "increments_per_cycle"});
  static const char* kPhase[kBins] = {"0-45deg",    "45-90deg",  "90-135deg",
                                      "135-180deg", "180-225deg", "225-270deg",
                                      "270-315deg", "315-360deg"};
  for (int bin = 0; bin < kBins; ++bin) {
    const sim::Time center = (2 * bin + 1) * (period / (2 * kBins));
    table.add_row({kPhase[bin],
                   analysis::Table::num(ac.voltage_at(center), 3),
                   analysis::Table::num(double(by_phase[bin]) / 50.0, 3)});
  }
  table.print();
  if (!table.write_csv("fig4_counter_ac.csv")) return 1;

  std::printf("\nSpeed-independence verdict over 50 AC cycles:\n");
  std::printf("  increments completed : %llu\n",
              static_cast<unsigned long long>(ctr.count()));
  std::printf("  code errors          : %llu (must be 0)\n",
              static_cast<unsigned long long>(ctr.code_errors()));
  std::printf("  rail violations      : %llu (must be 0)\n",
              static_cast<unsigned long long>(checker.total_violations()));
  std::printf("  VCD trace            : fig4_counter_ac.vcd\n");

  // Contrast: bundled counter on the same supply config — the *same*
  // descriptor elaborated onto a second kernel, which is the point of
  // declarative configs: "the same supply" is now checkable by value.
  auto ex2 = cfg.build();
  async::BundledParams bp;
  async::BundledCounter bc(ex2.ctx(), "bc", bp);
  bc.start();
  ex2.kernel().run_until(sim::us(50));
  std::printf(
      "\nBundled-data counter on the same supply: %llu captures, %llu "
      "wrong (%.0f%%)\n  — matched delays cannot bundle across this Vdd "
      "range (Fig. 5's lesson).\n",
      static_cast<unsigned long long>(bc.count()),
      static_cast<unsigned long long>(bc.errors()),
      bc.count() ? 100.0 * double(bc.errors()) / double(bc.count()) : 0.0);
  ctx.add_stats(kernel.stats());
  ctx.add_stats(ex2.kernel().stats());
  return 0;
}

static void lint_fig4(emc::lint::Session& s) {
  emc::async::DualRailCounter drc(s.ctx(), "drc", 2);
  // The AC supply swings 100-300 mV; clamp the declared range to the
  // model's operational floor (below vmin_operate nothing switches —
  // that is the brownout the figure studies, not a timing defect).
  drc.circuit().declare_operating_range(0.14, 0.30);
  s.check(drc.circuit());
  emc::async::BundledCounter bc(s.ctx(), "bc", emc::async::BundledParams{});
  bc.circuit().declare_operating_range(0.14, 0.30);
  bc.circuit().suppress("T001", "bc.bundle",
                        "at 100-300 mV the bundled margin is gone entirely - "
                        "the figure exists to show the dual-rail design "
                        "surviving exactly where this counter cannot");
  bc.circuit().suppress("T003", "bc",
                        "the AC trough sits far below the bundled design's "
                        "static functional floor by construction");
  s.check(bc.circuit());
}

REPRO_FIGURE(fig4_counter_ac)
    .title("Fig. 4 — dual-rail counter on 200mV +/- 100mV AC supply")
    .ref_csv("fig4_counter_ac.csv")
    .artifact("fig4_counter_ac.vcd")
    .lint(lint_fig4)
    .run(run_fig4);
