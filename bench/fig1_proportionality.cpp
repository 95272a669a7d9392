// Fig. 1 — "The idea of energy-proportional computing".
//
// Feed increasing energy quanta to (a) a self-timed Muller-ring engine
// that computes until the charge runs out, and (b) a clocked-equivalent
// engine burdened with a fixed overhead power (clock tree + idle logic)
// that must run whether or not useful work happens. The self-timed curve
// passes near the origin — useful activity at tiny energy — while the
// clocked curve needs a threshold quantum before any useful work appears.
//
// Each energy quantum is an independent scenario (own kernels, own
// circuits) described by a typed exp::ParamSet and dispatched through
// the exp::Workbench grid; set EMC_SWEEP_THREADS to control parallelism.
#include <cmath>
#include <cstdio>
#include <functional>

#include "async/pipeline.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"

namespace {

using namespace emc;

struct EngineResult {
  std::uint64_t ops = 0;
  sim::Kernel::Stats stats;
};

// Self-timed: a Muller ring powered from a charged cap; ops until stall.
EngineResult selftimed_ops(double energy_j) {
  const double cap_f = 200e-12;
  const double v0 = std::sqrt(2.0 * energy_j / cap_f);
  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::storage_cap(cap_f, std::min(v0, 1.1)))
                .build();
  async::MullerRing ring(ex.ctx(), "ring", 6, 2);
  ring.start();
  ex.kernel().run_until(sim::ms(5));
  return {ring.ops(), ex.kernel().stats()};
}

// Clocked-equivalent: same engine but a clock/idle overhead drains the
// quantum at a fixed rate; work only proceeds while V stays above a
// regulator floor of 0.5 V.
EngineResult clocked_ops(double energy_j) {
  const double cap_f = 200e-12;
  const double v0 = std::sqrt(2.0 * energy_j / cap_f);
  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::storage_cap(cap_f, std::min(v0, 1.1)))
                .build();
  sim::Kernel& kernel = ex.kernel();
  supply::StorageCap& cap = *ex.store();
  async::MullerRing ring(ex.ctx(), "ring", 6, 2);
  // Clock-tree overhead: drawn every 100 ns regardless of work.
  const double p_clock = 60e-6;  // 60 uW of clock + idle power
  std::function<void()> burn = [&] {
    const double v = cap.voltage();
    if (v <= 0.0) return;
    const double e = p_clock * 100e-9;
    cap.draw(e / std::max(v, 0.05), e);
    kernel.schedule(sim::ns(100), burn);
  };
  kernel.schedule(0, burn);
  ring.start();
  std::uint64_t ops_above_floor = 0;
  std::uint64_t last_ops = 0;
  // Sample ops while the "regulator" is in range (clocked logic cannot
  // ride Vdd down the way self-timed logic can).
  std::function<void()> sample = [&] {
    if (cap.voltage() >= 0.5) {
      ops_above_floor += ring.ops() - last_ops;
    }
    last_ops = ring.ops();
    kernel.schedule(sim::ns(100), sample);
  };
  kernel.schedule(0, sample);
  kernel.run_guarded({sim::ms(2), 3'000'000});
  return {ops_above_floor, kernel.stats()};
}

}  // namespace

static int run_fig1(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Fig. 1 — energy-proportional computing: useful ops vs energy quantum");
  std::printf(
      "Self-timed engine vs clocked-equivalent (fixed clock overhead, "
      "0.5 V regulator floor).\n\n");

  exp::Workbench wb("fig1_proportionality");
  wb.threads(ctx.threads);
  wb.grid().over("energy_nJ",
                 {0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0});
  wb.columns({"energy_nJ", "selftimed_ops", "clocked_ops"});

  // Typed per-scenario results land in index slots (one writer per index);
  // the table rows come back through the runner in scenario order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops(wb.grid().size());

  const auto& report = wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double e_nj = p.get<double>("energy_nJ");
    const EngineResult st = selftimed_ops(e_nj * 1e-9);
    const EngineResult ck = clocked_ops(e_nj * 1e-9);
    ops[rec.index()] = {st.ops, ck.ops};
    rec.row()
        .set("energy_nJ", e_nj)
        .set("selftimed_ops", st.ops)
        .set("clocked_ops", ck.ops);
    rec.add_stats(st.stats);
    rec.add_stats(ck.stats);
  });
  report.table.print();
  if (!wb.write_csv()) return 1;
  report.print_summary();

  std::uint64_t st_small = 0;
  std::uint64_t ck_small = 0;
  const auto& scenarios = wb.scenario_params();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (std::fabs(scenarios[i].get<double>("energy_nJ") - 0.5) < 1e-12) {
      st_small = ops[i].first;
      ck_small = ops[i].second;
    }
  }
  std::printf(
      "\nPaper's qualitative claim: energy-proportional (self-timed) designs "
      "generate useful\nactivity even at small amounts of energy; "
      "conventional designs do not.\n");
  std::printf("  at 0.5 nJ: self-timed completed %llu ops, clocked %llu.\n",
              static_cast<unsigned long long>(st_small),
              static_cast<unsigned long long>(ck_small));
  ctx.add_stats(report.kernel_stats);
  return 0;
}

static void lint_fig1(emc::lint::Session& s) {
  emc::async::MullerRing ring(s.ctx(), "ring", 6, 2);
  s.check(ring.circuit());
}

REPRO_FIGURE(fig1_proportionality)
    .title("Fig. 1 — useful ops vs energy quantum: self-timed vs clocked")
    .ref_csv("fig1_proportionality.csv")
    .lint(lint_fig1)
    .run(run_fig1);
