// [12] — stochastic analysis of power, latency and degree of concurrency.
//
// Birth-death CTMC with a power-capped service capacity: sweeps the
// admitted degree of concurrency K and prints latency / power /
// throughput, analytic vs simulated. The paper's point: concurrency buys
// latency only until the power budget saturates.
//
// Each K is an independent scenario on the exp::Workbench grid, with a
// per-scenario RNG seeded from K so the sweep is deterministic at any
// EMC_SWEEP_THREADS (the old serial loop threaded one RNG through all
// K, which a parallel sweep cannot reproduce).
#include <cstdio>

#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sched/petri.hpp"
#include "sched/stochastic.hpp"
#include "sim/random.hpp"

static int run_tab_stochastic(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Table — power/latency/degree-of-concurrency (CTMC, analytic vs sim)");

  exp::Workbench wb("tab_stochastic_concurrency");
  wb.threads(ctx.threads);
  wb.grid().over("K", std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8});
  wb.columns({"K", "latency_ms(analytic)", "latency_ms(sim)",
              "power_uW(analytic)", "power_uW(sim)", "throughput_hz",
              "budget_util"});

  wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
    const int k = p.get<int>("K");
    sched::ConcurrencyModel m;
    m.lambda_hz = 900.0;
    m.mu_hz = 400.0;
    m.power_budget_w = 450e-6;
    m.power_per_task_w = 150e-6;  // budget admits 3 tasks at full speed
    m.max_concurrency = static_cast<std::size_t>(k);
    sim::Rng rng(41 + static_cast<std::uint64_t>(k));
    const auto a = sched::solve_analytic(m);
    const auto s = sched::simulate(m, rng, 30.0);
    rec.row()
        .set("K", k)
        .set("latency_ms(analytic)", a.mean_latency_s * 1e3, 4)
        .set("latency_ms(sim)", s.mean_latency_s * 1e3, 4)
        .set("power_uW(analytic)", a.mean_power_w * 1e6, 4)
        .set("power_uW(sim)", s.mean_power_w * 1e6, 4)
        .set("throughput_hz", a.throughput_hz, 4)
        .set("budget_util", a.utilization, 3);
  });
  wb.table().print();
  if (!wb.write_csv()) return 1;
  std::printf(
      "\nShape ([12]): latency improves with K while the power budget "
      "allows (K <= 3 here),\nthen flattens — extra concurrency cannot be "
      "powered. The analytic chain and the\nevent simulation agree within "
      "sampling noise.\n");
  return 0;
}

static void lint_tab_stochastic(emc::lint::Session& s) {
  // The CTMC's structural skeleton: K server tokens cycling free <->
  // busy. The cycle is marked (the servers ARE the tokens), so D001
  // must prove it live.
  emc::sched::EnergyPetriNet net(s.kernel());
  const auto free_slots = net.add_place("free", 3);
  const auto busy = net.add_place("busy", 0);
  net.add_transition("admit", {free_slots}, {busy}, 1, emc::sim::us(1));
  net.add_transition("complete", {busy}, {free_slots}, 0, emc::sim::us(1));
  s.check(net, "ctmc.k_server");
}

REPRO_FIGURE(tab_stochastic_concurrency)
    .title("Table [12] — CTMC power/latency vs degree of concurrency")
    .ref_csv("tab_stochastic_concurrency.csv")
    .lint(lint_tab_stochastic)
    .run(run_tab_stochastic);
