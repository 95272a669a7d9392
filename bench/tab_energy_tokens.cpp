// [15] — task scheduling on a Petri net with energy tokens.
//
// A fork/join task graph whose transitions carry energy prices executes
// against three energy-arrival regimes (starved / matched / rich). The
// marking evolution shows computation literally modulated by the energy
// flow: throughput follows the replenishment rate, and when energy stops,
// the net quiesces with tokens conserved.
//
// Each arrival rate is an independent scenario (own kernel, own net) on
// the exp::Workbench grid.
#include <cstdio>

#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sched/petri.hpp"
#include "sim/random.hpp"

static int run_tab_energy_tokens(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Table — energy-token Petri net scheduling ([15])");

  exp::Workbench wb("tab_energy_tokens");
  wb.threads(ctx.threads);
  wb.grid().over("energy_rate_tok_ms", {5.0, 20.0, 60.0, 200.0});
  wb.columns({"energy_rate_tok_ms", "jobs_done_in_20ms", "energy_spent",
              "throughput_jobs_ms"});

  wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
    const double rate = p.get<double>("energy_rate_tok_ms");
    sim::Kernel kernel;
    sim::Rng rng(7);
    sched::EnergyPetriNet net(kernel);
    const auto in = net.add_place("in", 1000);
    const auto stage1 = net.add_place("s1", 0);
    const auto a = net.add_place("a", 0);
    const auto b = net.add_place("b", 0);
    const auto done = net.add_place("done", 0);
    net.add_transition("fetch", {in}, {stage1}, 1, sim::us(20));
    net.add_transition("fork", {stage1}, {a, b}, 1, sim::us(10));
    net.add_transition("join", {a, b}, {done}, 3, sim::us(30));
    // Energy arrives in quanta every 1 ms.
    const auto quanta = static_cast<std::uint64_t>(rate);
    std::function<void()> feed = [&] {
      net.add_energy(quanta);
      kernel.schedule(sim::ms(1), feed);
    };
    kernel.schedule(0, feed);
    net.run(sim::ms(20), rng);
    rec.row()
        .set("energy_rate_tok_ms", rate)
        .set("jobs_done_in_20ms", net.marking(done))
        .set("energy_spent", net.energy_spent())
        .set("throughput_jobs_ms", double(net.marking(done)) / 20.0, 3);
    rec.add_stats(kernel.stats());
  });
  wb.table().print();
  if (!wb.write_csv()) return 1;
  std::printf(
      "\nBehaviour is energy-modulated: the job rate tracks the token "
      "arrival rate until\nthe structural bound of the graph saturates; "
      "tokens are conserved throughout.\n");
  ctx.add_stats(wb.report().kernel_stats);
  return 0;
}

static void lint_tab_energy_tokens(emc::lint::Session& s) {
  // Same fork/join task graph the figure executes — a DAG, so D001's
  // token-free-cycle search must come back empty.
  emc::sched::EnergyPetriNet net(s.kernel());
  const auto in = net.add_place("in", 1000);
  const auto stage1 = net.add_place("s1", 0);
  const auto a = net.add_place("a", 0);
  const auto b = net.add_place("b", 0);
  const auto done = net.add_place("done", 0);
  net.add_transition("fetch", {in}, {stage1}, 1, emc::sim::us(20));
  net.add_transition("fork", {stage1}, {a, b}, 1, emc::sim::us(10));
  net.add_transition("join", {a, b}, {done}, 3, emc::sim::us(30));
  s.check(net, "energy_tokens.fork_join");
}

REPRO_FIGURE(tab_energy_tokens)
    .title("Table [15] — energy-token Petri net: throughput vs arrival rate")
    .ref_csv("tab_energy_tokens.csv")
    .lint(lint_tab_energy_tokens)
    .run(run_tab_energy_tokens);
