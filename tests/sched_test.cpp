// Scheduling tests: task generators, energy-token pool, Petri nets with
// energy tokens, scheduler policy comparison, stochastic concurrency
// analysis (analytic vs simulated cross-check).
#include <gtest/gtest.h>

#include <cmath>

#include "sched/energy_token.hpp"
#include "sched/petri.hpp"
#include "sched/scheduler.hpp"
#include "sched/stochastic.hpp"
#include "sched/task.hpp"
#include "supply/harvester.hpp"
#include "supply/storage_cap.hpp"

namespace emc::sched {
namespace {

TEST(TaskGenerator, PoissonRespectsHorizonAndRate) {
  sim::Rng rng(13);
  TaskGenerator gen(1e-4, 50.0, 5e-4, rng);
  const auto tasks = gen.poisson(sim::ms(10));
  EXPECT_NEAR(double(tasks.size()), 100.0, 35.0);  // ~horizon/mean_ia
  for (const auto& t : tasks) {
    EXPECT_LT(t.release, sim::ms(10));
    EXPECT_EQ(t.deadline, t.release + sim::from_seconds(5e-4));
  }
}

TEST(Task, EnergyScalesWithVddSquared) {
  Task t;
  t.work_ops = 100;
  t.energy_per_op_j = 6e-12;
  EXPECT_NEAR(t.energy_at(1.0) / t.energy_at(0.5), 4.0, 1e-9);
}

TEST(EnergyTokenPool, AccountsHoldsAndReserve) {
  sim::Kernel k;
  // 1 uF at 1 V = 0.5 uJ stored; reserve 0.5 V = 0.125 uJ; 10 nJ tokens
  // -> 37 spendable.
  supply::StorageCap store(k, "store", 1e-6, 1.0);
  EnergyTokenPool pool(store, 10e-9, 0.5);
  EXPECT_EQ(pool.available(), 37u);
  EXPECT_TRUE(pool.try_acquire(30));
  EXPECT_EQ(pool.available(), 7u);
  EXPECT_FALSE(pool.try_acquire(8));
  EXPECT_EQ(pool.rejections(), 1u);
  pool.release(30);
  EXPECT_EQ(pool.available(), 37u);
  // Draining the store shrinks availability.
  store.draw(store.charge() * 0.5, 0.0);
  EXPECT_EQ(pool.available(), 0u);  // 0.5 V = exactly the reserve
}

TEST(EnergyTokenPool, MidTaskDrawDoesNotDoubleCountHolds) {
  sim::Kernel k;
  // 1 uF at 1 V = 0.5 uJ stored; reserve 0.5 V = 0.125 uJ; 10 nJ tokens
  // -> 37 spendable.
  supply::StorageCap store(k, "store", 1e-6, 1.0);
  EnergyTokenPool pool(store, 10e-9, 0.5);
  ASSERT_TRUE(pool.try_acquire(30));
  EXPECT_EQ(pool.available(), 7u);

  // The running task physically draws 10 tokens' worth (100 nJ): the
  // store already lost that energy, so the hold's outstanding part is
  // 20 tokens — availability must stay 7-ish, not collapse to 0 from
  // subtracting the full hold a second time.
  store.draw(1e-7, 100e-9);
  EXPECT_NEAR(pool.outstanding_hold_j(), 200e-9, 1e-15);
  // stored: 0.405 uJ; spendable: 0.405 - 0.125 - 0.2 = 0.08 uJ -> ~8
  // tokens (one above the pre-draw 7: the E=Q^2/2C curvature of the
  // 100 nC draw; the exact count sits on an ulp boundary).
  EXPECT_GE(pool.available(), 7u);
  EXPECT_LE(pool.available(), 8u);

  // The old accounting under-reported to 0 and inflated rejections_;
  // an affordable acquire must succeed without a phantom rejection.
  EXPECT_TRUE(pool.try_acquire(7));
  EXPECT_EQ(pool.rejections(), 0u);

  // Releasing the first task retires its drawn share; the second hold
  // keeps its full outstanding weight.
  pool.release(30);
  EXPECT_EQ(pool.holds(), 7u);
  EXPECT_NEAR(pool.outstanding_hold_j(), 70e-9, 1e-15);
  pool.release(7);
  EXPECT_EQ(pool.holds(), 0u);
  EXPECT_DOUBLE_EQ(pool.outstanding_hold_j(), 0.0);
}

TEST(EnergyPetriNet, FiringConservesTokens) {
  sim::Kernel k;
  EnergyPetriNet net(k);
  const auto p1 = net.add_place("p1", 2);
  const auto p2 = net.add_place("p2", 0);
  const auto t = net.add_transition("t", {p1}, {p2}, 3, sim::us(1));
  net.add_energy(10);
  ASSERT_TRUE(net.enabled(t));
  ASSERT_TRUE(net.fire(t));
  EXPECT_EQ(net.marking(p1), 1u);
  EXPECT_EQ(net.marking(p2), 0u);  // output not yet produced
  k.run_until(sim::kTimeMax);
  EXPECT_EQ(net.marking(p2), 1u);
  EXPECT_EQ(net.marking(net.energy_place()), 7u);
  EXPECT_EQ(net.energy_spent(), 3u);
  EXPECT_EQ(net.tokens_consumed(), 4u);  // 1 data + 3 energy
  EXPECT_EQ(net.tokens_produced(), 1u);
}

TEST(EnergyPetriNet, EnergyGatesBehaviour) {
  sim::Kernel k;
  sim::Rng rng(1);
  EnergyPetriNet net(k);
  const auto src = net.add_place("src", 100);
  const auto sink = net.add_place("sink", 0);
  const auto t = net.add_transition("work", {src}, {sink}, 5, sim::us(1));
  // With 23 energy tokens only floor(23/5)=4 firings are possible.
  net.add_energy(23);
  net.run(sim::ms(1), rng);
  EXPECT_EQ(net.fires(t), 4u);
  EXPECT_EQ(net.marking(sink), 4u);
  EXPECT_EQ(net.marking(net.energy_place()), 3u);
  // Refuelling resumes the computation: energy modulates behaviour.
  net.add_energy(10);
  net.run(sim::ms(2), rng);
  EXPECT_EQ(net.fires(t), 6u);
}

TEST(EnergyPetriNet, ForkJoinPipeline) {
  sim::Kernel k;
  sim::Rng rng(5);
  EnergyPetriNet net(k);
  const auto in = net.add_place("in", 3);
  const auto a = net.add_place("a", 0);
  const auto b = net.add_place("b", 0);
  const auto out = net.add_place("out", 0);
  net.add_transition("fork", {in}, {a, b}, 1, sim::us(1));
  net.add_transition("join", {a, b}, {out}, 2, sim::us(2));
  net.add_energy(100);
  net.run(sim::ms(1), rng);
  EXPECT_EQ(net.marking(out), 3u);
  EXPECT_EQ(net.energy_spent(), 9u);  // 3 forks + 3 joins * 2
}

// ---- scheduler comparison -----------------------------------------------------

struct SchedFixture {
  sim::Kernel kernel;
  sim::Rng rng{17};
  device::DelayModel model{device::Tech::umc90()};
  supply::StorageCap store;
  supply::Harvester harvester;

  SchedFixture()
      : store(kernel, "store", 2e-6, 0.9),
        harvester(kernel, supply::HarvesterProfile::vibration_200uw(), store,
                  rng, sim::us(10)) {
    store.set_wake_threshold(0.16);
  store.set_max_voltage(1.0);
  }

  std::vector<Task> workload(double mean_ia_s, sim::Time horizon) {
    TaskGenerator gen(mean_ia_s, 200.0, 20e-3, rng);
    return gen.poisson(horizon);
  }
};

TEST(Scheduler, ProcessorExecutesAndDrawsEnergy) {
  SchedFixture f;
  Processor proc(f.kernel, f.model, f.store);
  Task t;
  t.work_ops = 1000;
  bool ok = false;
  const double e_before = f.store.stored_energy();
  proc.execute(t, [&](bool r) { ok = r; });
  f.kernel.run_until(sim::ms(100));
  EXPECT_TRUE(ok);
  EXPECT_LT(f.store.stored_energy(), e_before);
  EXPECT_GT(proc.ops_per_s(1.0), proc.ops_per_s(0.4));
}

TEST(Scheduler, EnergyTokenBeatsFixedRateOnBrownouts) {
  // Overloaded workload on a weak harvester: the naive scheduler drains
  // the store and aborts work; the token scheduler defers instead.
  auto run_policy = [](int which) {
    SchedFixture f;
    f.harvester.start();
    auto tasks = f.workload(1.0e-3, sim::ms(300));
    std::unique_ptr<SchedulerBase> sched;
    std::unique_ptr<EnergyTokenPool> pool;
    if (which == 0) {
      sched = std::make_unique<FixedRateScheduler>(f.kernel, f.model,
                                                   f.store, 4);
    } else {
      pool = std::make_unique<EnergyTokenPool>(f.store, 20e-9, 0.35);
      sched = std::make_unique<EnergyTokenScheduler>(f.kernel, f.model,
                                                     f.store, 4, *pool);
    }
    sched->load(std::move(tasks));
    f.kernel.run_until(sim::ms(300));
    return sched->stats();
  };
  const SchedStats fixed = run_policy(0);
  const SchedStats tokens = run_policy(1);
  EXPECT_GT(fixed.released, 100u);
  // The energy-aware policy wastes less: fewer aborts...
  EXPECT_LT(tokens.aborted_brownout, fixed.aborted_brownout + 1);
  EXPECT_LT(tokens.wasted_energy_j, fixed.wasted_energy_j + 1e-12);
  // ...and completes at least comparable useful work.
  EXPECT_GE(tokens.completed + 5, fixed.completed);
}

// ---- stochastic analysis ------------------------------------------------------

TEST(Stochastic, AnalyticMatchesSimulation) {
  ConcurrencyModel m;
  m.lambda_hz = 800.0;
  m.mu_hz = 500.0;
  m.max_concurrency = 3;
  const ConcurrencyResult a = solve_analytic(m);
  sim::Rng rng(23);
  const ConcurrencyResult s = simulate(m, rng, 50.0);
  EXPECT_NEAR(s.mean_tasks, a.mean_tasks, a.mean_tasks * 0.15 + 0.05);
  EXPECT_NEAR(s.mean_power_w, a.mean_power_w, a.mean_power_w * 0.1);
  EXPECT_NEAR(s.mean_latency_s, a.mean_latency_s, a.mean_latency_s * 0.2);
}

TEST(Stochastic, ConcurrencyHelpsUntilPowerBudgetSaturates) {
  // The [12] insight: latency falls with K while power allows, then
  // flattens — the power budget caps the useful degree of concurrency.
  ConcurrencyModel m;
  m.lambda_hz = 900.0;
  m.mu_hz = 400.0;
  m.power_budget_w = 450e-6;   // c_power = 3
  m.power_per_task_w = 150e-6;
  std::vector<double> latency;
  for (std::size_t k = 1; k <= 6; ++k) {
    m.max_concurrency = k;
    latency.push_back(solve_analytic(m).mean_latency_s);
  }
  EXPECT_LT(latency[1], latency[0]);  // K=2 beats K=1
  EXPECT_LT(latency[2], latency[1]);  // K=3 beats K=2
  // Beyond the power cap (c_power=3) nothing improves.
  EXPECT_NEAR(latency[4], latency[3], latency[3] * 0.02);
  EXPECT_NEAR(latency[5], latency[3], latency[3] * 0.02);
}

TEST(Stochastic, PowerNeverExceedsBudget) {
  ConcurrencyModel m;
  for (std::size_t k = 1; k <= 8; ++k) {
    m.max_concurrency = k;
    const auto r = solve_analytic(m);
    EXPECT_LE(r.mean_power_w, m.power_budget_w * 1.0001);
    EXPECT_LE(r.utilization, 1.0001);
  }
}

}  // namespace
}  // namespace emc::sched
