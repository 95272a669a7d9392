// Fig. 3 — power-adaptive computing, the holistic view.
//
// Full-chain experiment: stochastic harvester -> MPPT -> storage cap ->
// computational load (task scheduler), with the adaptive controller
// reading the store voltage and modulating scheduler concurrency.
// Compares three systems over the same 300 ms harvest trace:
//   A. fixed-rate scheduler (traditional, energy-blind)
//   B. energy-token scheduler, no adaptation (static concurrency)
//   C. energy-token scheduler + adaptive concurrency control (Fig. 3)
// Metrics: completed tasks, brown-out aborts, deadline misses, useful
// energy per harvested joule.
//
// A harvest dead-spell — the regime that separates the policies — hits
// only a few traces, so the claim is read from totals over 16 harvest
// seeds rather than from one lucky trace, and the run fails if the totals
// stop showing it.
//
// The 3 systems x 16 harvest seeds = 48 independent simulations run as one
// exp::Workbench grid over typed {system, seed} parameters (each
// scenario on its own kernel, power chain declared as an
// exp::SupplyConfig); the per-system averages are folded afterwards in
// scenario order.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "analysis/table.hpp"
#include "device/delay_model.hpp"
#include "exp/supply_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "power/adaptive_controller.hpp"
#include "repro/registry.hpp"
#include "sched/energy_token.hpp"
#include "sched/petri.hpp"
#include "sched/scheduler.hpp"
#include "sched/task.hpp"

namespace {

using namespace emc;

struct Outcome {
  sched::SchedStats stats;
  double harvested_j = 0.0;
  std::uint64_t level_changes = 0;
  sim::Kernel::Stats kernel_stats;
};

// The Fig. 3 power chain as data: a 2 uF store pre-charged to 0.8 V
// (wake at 0.16 V, shunt-clamped at 1.0 V) fed by the bursty vibration
// harvester through MPPT.
exp::SupplyConfig power_chain(std::uint64_t seed) {
  return exp::SupplyConfig::harvested(
      exp::SupplyConfig::storage_cap(2e-6, 0.8)
          .wake_threshold(0.16)
          .max_voltage(1.0),
      supply::HarvesterProfile::vibration_200uw(), seed, sim::us(10));
}

Outcome run_system(int which, std::uint64_t seed) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  exp::BuiltSupply chain = power_chain(seed).build(kernel);
  supply::StorageCap& store = *chain.store();

  // Always-on node load (radio wake logic, retention, sensor bias):
  // ~40 uW at 0.8 V, scaling as V^2. This is what makes over-admission
  // dangerous — during a harvest dead-spell the store must carry this
  // load on reserve alone, or the node loses all in-flight state.
  std::function<void()> quiescent = [&] {
    const double v = store.voltage();
    if (v > 0.0) {
      const double e = 40e-6 * (v / 0.8) * (v / 0.8) * 50e-6;
      store.draw(e / std::max(v, 0.05), e);
    }
    kernel.schedule(sim::us(50), quiescent);
  };
  kernel.schedule(0, quiescent);

  // Same workload for every system: ~270 uW offered at 0.6 V vs ~200 uW
  // harvested — the energy constraint binds, which is the regime the
  // holistic architecture exists for.
  sim::Rng wl_rng(1234);
  sched::TaskGenerator gen(0.5e-3, 1500.0, 15e-3, wl_rng);
  auto tasks = gen.poisson(sim::ms(300));
  for (auto& t : tasks) t.energy_per_op_j = 150e-12;

  std::unique_ptr<sched::SchedulerBase> sched;
  std::unique_ptr<sched::EnergyTokenPool> pool;
  std::unique_ptr<power::AdaptiveController> ctl;

  if (which == 0) {
    sched =
        std::make_unique<sched::FixedRateScheduler>(kernel, model, store, 4);
  } else {
    pool = std::make_unique<sched::EnergyTokenPool>(store, 20e-9, 0.30);
    sched = std::make_unique<sched::EnergyTokenScheduler>(kernel, model,
                                                          store, 4, *pool);
    if (which == 2) {
      power::AdaptiveParams ap;
      ap.control_period = sim::us(200);
      ctl = std::make_unique<power::AdaptiveController>(
          kernel, store, ap, [&s = *sched](std::uint32_t level) {
            s.set_max_concurrency(level == 0 ? 0 : level);
          });
      ctl->start();
    }
  }
  sched->load(std::move(tasks));
  kernel.run_until(sim::ms(300));
  Outcome o;
  o.stats = sched->stats();
  o.harvested_j = chain.harvester()->total_energy_harvested();
  o.level_changes = ctl ? ctl->level_changes() : 0;
  o.kernel_stats = kernel.stats();
  return o;
}

}  // namespace

static int run_fig3(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Fig. 3 — holistic power-adaptive system: harvester -> MPPT -> store "
      "-> modulated load");

  static const char* kNames[3] = {"A fixed-rate (traditional)",
                                  "B energy-token (static)",
                                  "C energy-token + adaptive (Fig. 3)"};

  // One scenario per (system, seed) pair; the grid is typed — seeds are
  // ints, not doubles smuggled through positional slots.
  exp::Workbench wb("fig3_holistic_adaptation");
  wb.threads(ctx.threads);
  wb.grid().over("system", std::vector<int>{0, 1, 2});
  std::vector<int> seeds;
  for (int s = 1; s <= 16; ++s) seeds.push_back(s);
  wb.grid().over("seed", seeds);
  wb.columns({"system", "seed", "completed", "aborted", "useful_uJ"});

  std::vector<Outcome> outcomes(wb.grid().size());
  const auto& report = wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const int which = p.get<int>("system");
    const auto seed = p.get<std::uint64_t>("seed");
    const Outcome o = run_system(which, seed);
    outcomes[rec.index()] = o;
    rec.row()
        .set("system", kNames[which])
        .set("seed", seed)
        .set("completed", o.stats.completed)
        .set("aborted", o.stats.aborted_brownout)
        .set("useful_uJ", o.stats.useful_energy_j * 1e6, 4);
    rec.add_stats(o.kernel_stats);
  });
  if (!wb.write_csv()) return 1;
  report.print_summary();

  analysis::Table table({"system", "completed", "in_time", "aborted",
                         "useful_uJ", "wasted_uJ", "useful_per_harvested"});
  double completed[3] = {0, 0, 0};
  double aborted[3] = {0, 0, 0};
  for (int which = 0; which < 3; ++which) {
    // Total over the harvest seeds (scenario order: seeds are contiguous
    // per system — the grid's "seed" axis varies fastest).
    sched::SchedStats acc;
    double harvested = 0.0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const Outcome& o = outcomes[which * seeds.size() + k];
      acc.released += o.stats.released;
      acc.completed += o.stats.completed;
      acc.aborted_brownout += o.stats.aborted_brownout;
      acc.deadline_misses += o.stats.deadline_misses;
      acc.useful_energy_j += o.stats.useful_energy_j;
      acc.wasted_energy_j += o.stats.wasted_energy_j;
      harvested += o.harvested_j;
    }
    completed[which] = double(acc.completed);
    aborted[which] = double(acc.aborted_brownout);
    table.add_row(
        {kNames[which], std::to_string(acc.completed),
         std::to_string(acc.completed - acc.deadline_misses),
         std::to_string(acc.aborted_brownout),
         analysis::Table::num(acc.useful_energy_j * 1e6, 4),
         analysis::Table::num(acc.wasted_energy_j * 1e6, 4),
         analysis::Table::num(acc.useful_energy_j / harvested, 3)});
  }
  table.print();

  std::printf(
      "\nPaper claim (II.B): within the holistic approach, useful energy "
      "consumption is\nmaximized for a given amount of energy produced. "
      "Over %zu harvest traces the\nenergy-blind scheduler (A) admits "
      "everything and destroys %.0f tasks mid-flight in\nstore collapses; "
      "the energy-token policies complete a comparable total (%.0f vs\n"
      "%.0f) with only %.0f (B) and %.0f (C) brown-out aborts, the adaptive "
      "variant\nadditionally bounding concurrency during harvest "
      "dead-spells.\n",
      seeds.size(), aborted[0], completed[2], completed[0], aborted[1],
      aborted[2]);
  ctx.add_stats(report.kernel_stats);
  // The claim is the figure: fail the run when the totals stop showing it.
  if (!(aborted[0] > 10.0 * aborted[1] && aborted[0] > 10.0 * aborted[2])) {
    std::fprintf(stderr,
                 "fig3: claim not reproduced: aborts A %.0f, B %.0f, C %.0f "
                 "(A must exceed 10x each)\n",
                 aborted[0], aborted[1], aborted[2]);
    return 1;
  }
  return 0;
}

static void lint_fig3(emc::lint::Session& s) {
  // The figure's components are analytic (scheduler + power chain); the
  // structure behind the energy-token policy is the task-lifecycle loop:
  // concurrency slots cycle idle -> running -> idle, and the cycle must
  // carry tokens (the admission budget) to stay live.
  emc::sched::EnergyPetriNet net(s.kernel());
  const auto idle = net.add_place("idle", 4);
  const auto running = net.add_place("running", 0);
  net.add_transition("admit", {idle}, {running}, 1, emc::sim::us(10));
  net.add_transition("complete", {running}, {idle}, 0, emc::sim::us(10));
  s.check(net, "fig3.task_cycle");
}

REPRO_FIGURE(fig3_holistic_adaptation)
    .title("Fig. 3 — harvester->MPPT->store->load: fixed vs token vs adaptive")
    .ref_csv("fig3_holistic_adaptation.csv")
    .lint(lint_fig3)
    .run(run_fig3);
