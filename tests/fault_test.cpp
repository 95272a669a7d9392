// Fault-injection & survivability tests.
//
// What is pinned here:
//   * replay: the same FaultPlan seed on the same circuit produces
//     byte-equal RunVerdicts and counters on every run, over randomized
//     >=10k-event fault schedules;
//   * brownout semantics: a stalled counter keeps its state and resumes
//     counting exactly on recovery;
//   * the kernel watchdog: a deliberately deadlocked handshake is
//     classified kDeadlocked (no hang, no abort), energy exhaustion is
//     kQuiesced, a tripped event budget is kBudgetExhausted and leaves
//     the kernel usable, a clean drain is kCompleted;
//   * FaultPlan purity: windows_for is pure in (seed, stream ordinal),
//     and a fault-driven Workbench sweep is byte-identical at sweep
//     thread counts 1, 4 and 7;
//   * FaultableSupply: transparent with no windows, min-scale under
//     overlap, forwards draws/wakes, bumps the voltage epoch;
//   * EMC_FAULT_SMOKE=1 forces the wrapper under every built config.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "async/counter.hpp"
#include "async/handshake.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faultable_supply.hpp"
#include "supply/battery.hpp"
#include "supply/storage_cap.hpp"

namespace emc::fault {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- same-seed replay --------------------------------------------------

struct FaultedOutcome {
  sim::RunStatus status;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t served;
  std::uint64_t stall_entries;
  std::uint64_t recoveries;
  std::uint64_t faults_seen;
};

bool operator==(const FaultedOutcome& a, const FaultedOutcome& b) {
  return a.status == b.status && a.events == b.events &&
         a.end_time == b.end_time && a.served == b.served &&
         a.stall_entries == b.stall_entries && a.recoveries == b.recoveries &&
         a.faults_seen == b.faults_seen;
}

/// One faulted oscillator scenario: near-threshold battery, randomized
/// dropout + brownout streams, 200 us horizon.
FaultedOutcome run_faulted(std::uint64_t seed) {
  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::battery(0.35).faultable())
                .build();
  sim::Kernel& kernel = ex.kernel();
  async::ToggleRippleCounter ctr(ex.ctx(), "osc", 4);
  ctr.start();

  FaultPlan plan(seed, sim::us(200));
  plan.dropouts(5e4, 4e-6).brownouts(8e4, 2e-6, 0.3);
  FaultPlan::Targets t;
  t.supply = ex.fault_supply();
  plan.elaborate(kernel, t);

  kernel.add_probe([&] {
    return ex.ctx().drives.any_stalled() ? sim::ProbeState::kStalled
                                         : sim::ProbeState::kIdle;
  });
  sim::Budget b;
  b.horizon = sim::us(200);
  const sim::RunVerdict v = kernel.run_guarded(b);
  return {v.status,
          v.events,
          v.end_time,
          ctr.transitions_served(),
          ex.ctx().drives.stall_entries(),
          ex.ctx().drives.recoveries(),
          ex.fault_supply()->faults_seen()};
}

TEST(FaultReplay, SameSeedGivesIdenticalVerdicts) {
  std::vector<FaultedOutcome> per_seed;
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const FaultedOutcome first = run_faulted(seed);
    const FaultedOutcome again = run_faulted(seed);
    EXPECT_TRUE(first == again) << "seed " << seed;
    // The schedule must be substantial, not a trivial handful of events.
    EXPECT_GE(first.events, 10000u) << "seed " << seed;
    EXPECT_GT(first.faults_seen, 0u) << "seed " << seed;
    EXPECT_GT(first.stall_entries, 0u) << "seed " << seed;
    per_seed.push_back(first);
  }
  // The seed must actually steer the fault streams.
  EXPECT_FALSE(per_seed[0] == per_seed[1] && per_seed[1] == per_seed[2]);
}

// --- brownout semantics ------------------------------------------------

TEST(Brownout, RetainStateResumesCountingWithoutLoss) {
  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::battery(0.35).faultable())
                .build();
  sim::Kernel& kernel = ex.kernel();
  async::ToggleRippleCounter ctr(ex.ctx(), "osc", 3);
  ctr.start();

  // One dropout window, [20 us, 30 us).
  fault::FaultableSupply* rail = ex.fault_supply();
  kernel.schedule_at(sim::us(20), [rail] { rail->begin_fault(0.0); });
  kernel.schedule_at(sim::us(30), [rail] { rail->end_fault(0.0); });

  kernel.run_until(sim::us(25));  // mid-dropout
  const std::uint64_t mid = ctr.transitions_served();
  EXPECT_GT(mid, 0u);
  EXPECT_TRUE(ex.ctx().drives.any_stalled());

  kernel.run_until(sim::us(60));
  EXPECT_GT(ctr.transitions_served(), mid);  // resumed after recovery
  EXPECT_GT(ex.ctx().drives.stall_entries(), 0u);
  EXPECT_GT(ex.ctx().drives.recoveries(), 0u);
  // Retention keeps the decode exactness guarantee across the brownout.
  EXPECT_EQ(ctr.decode(), ctr.transitions_served() % 8u);
}

// --- kernel watchdog ---------------------------------------------------

TEST(Watchdog, DeadlockedHandshakeIsClassifiedNotHungOn) {
  auto ex = exp::ContextConfig::battery(1.0).build();
  sim::Kernel& kernel = ex.kernel();
  sim::Wire req(kernel, "req", false), ack(kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(ex.ctx(), "src", ch);
  async::HandshakeSink sink(ex.ctx(), "sink", ch, 2.0);
  src.start(100000);  // far more cycles than fit before the stall

  // A permanent stall: the sink stops acking and never recovers.
  kernel.schedule_at(sim::ns(10), [&sink] { sink.stall(); });

  kernel.add_probe([&] {
    return src.mid_protocol() ? sim::ProbeState::kBusy
                              : sim::ProbeState::kIdle;
  });
  const sim::RunVerdict v = kernel.run_guarded();  // default budget
  EXPECT_EQ(v.status, sim::RunStatus::kDeadlocked);
  EXPECT_EQ(v.busy_probes, 1u);
  EXPECT_EQ(v.stalled_probes, 0u);
  EXPECT_LT(src.completed(), 100000u);
  EXPECT_STREQ(sim::to_string(v.status), "deadlocked");
}

TEST(Watchdog, EnergyExhaustionIsQuiesced) {
  // A storage cap too small to carry the batch: the circuit freezes
  // when the charge runs out and no harvester ever wakes it.
  auto ex =
      exp::ContextConfig::with(exp::SupplyConfig::storage_cap(2e-12, 0.5))
          .build();
  sim::Kernel& kernel = ex.kernel();
  async::ToggleRippleCounter ctr(ex.ctx(), "osc", 3);
  ctr.start();
  kernel.add_probe([&] {
    return ex.ctx().drives.any_stalled() ? sim::ProbeState::kStalled
                                         : sim::ProbeState::kIdle;
  });
  const sim::RunVerdict v = kernel.run_guarded();
  EXPECT_EQ(v.status, sim::RunStatus::kQuiesced);
  EXPECT_EQ(v.stalled_probes, 1u);
  EXPECT_GT(ctr.transitions_served(), 0u);  // ran while energy lasted
}

TEST(Watchdog, BudgetExhaustionIsReportedAndRecoverable) {
  auto ex = exp::ContextConfig::battery(1.0).build();
  sim::Kernel& kernel = ex.kernel();
  async::ToggleRippleCounter ctr(ex.ctx(), "osc", 3);
  ctr.start();
  sim::Budget tight;
  tight.horizon = sim::ms(1);
  tight.max_events = 500;
  const sim::RunVerdict v1 = kernel.run_guarded(tight);
  EXPECT_EQ(v1.status, sim::RunStatus::kBudgetExhausted);
  EXPECT_EQ(v1.events, 500u);
  // The budget cap is scoped to the call: a follow-up run proceeds.
  sim::Budget wide;
  wide.horizon = v1.end_time + sim::us(1);
  const sim::RunVerdict v2 = kernel.run_guarded(wide);
  EXPECT_EQ(v2.status, sim::RunStatus::kCompleted);
  EXPECT_GT(v2.events, 500u);
}

TEST(Watchdog, CleanCompletionIsCompleted) {
  auto ex = exp::ContextConfig::battery(1.0).build();
  sim::Kernel& kernel = ex.kernel();
  sim::Wire req(kernel, "req", false), ack(kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(ex.ctx(), "src", ch);
  async::HandshakeSink sink(ex.ctx(), "sink", ch, 2.0);
  src.start(10);
  kernel.add_probe([&] {
    return src.mid_protocol() ? sim::ProbeState::kBusy
                              : sim::ProbeState::kIdle;
  });
  const sim::RunVerdict v = kernel.run_guarded();
  EXPECT_EQ(v.status, sim::RunStatus::kCompleted);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(src.completed(), 10u);
  EXPECT_EQ(v.busy_probes, 0u);
}

TEST(Watchdog, StalledSinkProbeReadsQuiescedNotDeadlocked) {
  // Same wedged handshake, but the probe knows the sink is fault-stalled
  // — the census then reads "would resume if the fault cleared", which
  // classifies as quiesced rather than deadlocked.
  auto ex = exp::ContextConfig::battery(1.0).build();
  sim::Kernel& kernel = ex.kernel();
  sim::Wire req(kernel, "req", false), ack(kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(ex.ctx(), "src", ch);
  async::HandshakeSink sink(ex.ctx(), "sink", ch, 2.0);
  src.start(1000);
  kernel.schedule_at(sim::ns(10), [&sink] { sink.stall(); });
  kernel.add_probe([&] {
    if (!src.mid_protocol()) return sim::ProbeState::kIdle;
    return sink.stalled() ? sim::ProbeState::kStalled
                          : sim::ProbeState::kBusy;
  });
  const sim::RunVerdict v = kernel.run_guarded();
  EXPECT_EQ(v.status, sim::RunStatus::kQuiesced);
  ASSERT_LT(src.completed(), 1000u);
  // Resuming the sink un-wedges the protocol: the pending req edge is
  // replayed and the batch completes.
  sink.resume();
  const sim::RunVerdict v2 = kernel.run_guarded();
  EXPECT_EQ(v2.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(src.completed(), 1000u);
}

// --- FaultPlan determinism ---------------------------------------------

TEST(FaultPlanTest, WindowsArePureInSeedAndOrdinal) {
  FaultPlan a(42, sim::us(500));
  a.dropouts(1e5, 5e-6).handshake_stalls(2e4, 1e-5);
  FaultPlan b(42, sim::us(500));
  b.dropouts(1e5, 5e-6).harvester_blackouts(1e5, 5e-6);

  const auto wa = a.windows_for(a.specs()[0]);
  const auto wb = b.windows_for(b.specs()[0]);
  ASSERT_FALSE(wa.empty());
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].start, wb[i].start);
    EXPECT_EQ(wa[i].duration, wb[i].duration);
  }
  // Repeated generation is stable (const, freshly keyed each call).
  const auto wa2 = a.windows_for(a.specs()[0]);
  ASSERT_EQ(wa.size(), wa2.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].start, wa2[i].start);
    EXPECT_EQ(wa[i].duration, wa2[i].duration);
  }
  // A different ordinal is a different stream.
  const auto ws1 = a.windows_for(a.specs()[1]);
  ASSERT_FALSE(ws1.empty());
  EXPECT_NE(ws1[0].start, wa[0].start);
  // Windows within one spec are sequential and non-overlapping.
  for (std::size_t i = 1; i < wa.size(); ++i) {
    EXPECT_GE(wa[i].start, wa[i - 1].start + wa[i - 1].duration);
  }
}

TEST(FaultPlanTest, FaultedSweepIsThreadCountInvariant) {
  const auto run_at = [](unsigned threads, const std::string& path) {
    exp::Workbench wb("zz_fault_sweep");
    wb.threads(threads);
    wb.grid().over("dropout_hz", {0.0, 1e5});
    wb.replicate(3, 77);
    wb.columns({"dropout_hz", "trial", "served", "status"});
    wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
      auto ex = exp::ContextConfig::with(
                    exp::SupplyConfig::battery(0.35).faultable())
                    .build();
      sim::Kernel& kernel = ex.kernel();
      async::ToggleRippleCounter ctr(ex.ctx(), "osc", 3);
      ctr.start();
      FaultPlan plan(p.get<std::uint64_t>("trial_seed"), sim::us(50));
      plan.dropouts(p.get<double>("dropout_hz"), 3e-6);
      FaultPlan::Targets t;
      t.supply = ex.fault_supply();
      plan.elaborate(kernel, t);
      sim::Budget b;
      b.horizon = sim::us(50);
      const sim::RunVerdict v = kernel.run_guarded(b);
      rec.row()
          .set("dropout_hz", p.get<double>("dropout_hz"), 0)
          .set("trial", p.get<int>("trial"))
          .set("served", ctr.transitions_served())
          .set("status", sim::to_string(v.status));
    });
    ASSERT_TRUE(wb.write_csv(path));
  };
  run_at(1, "zz_fault_sweep_t1.csv");
  run_at(4, "zz_fault_sweep_t4.csv");
  run_at(7, "zz_fault_sweep_t7.csv");
  const std::string t1 = slurp("zz_fault_sweep_t1.csv");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, slurp("zz_fault_sweep_t4.csv"));
  EXPECT_EQ(t1, slurp("zz_fault_sweep_t7.csv"));
  std::remove("zz_fault_sweep_t1.csv");
  std::remove("zz_fault_sweep_t4.csv");
  std::remove("zz_fault_sweep_t7.csv");
}

// --- FaultableSupply ---------------------------------------------------

TEST(FaultableSupplyTest, ScalesByMinActiveWindowAndForwards) {
  sim::Kernel kernel;
  supply::Battery bat(kernel, "vdd", 1.0);
  FaultableSupply fs(bat);

  EXPECT_DOUBLE_EQ(fs.voltage(), 1.0);  // transparent with no windows
  EXPECT_FALSE(fs.fault_active());
  const std::uint64_t e0 = fs.voltage_epoch();

  fs.begin_fault(0.5);
  EXPECT_DOUBLE_EQ(fs.voltage(), 0.5);
  fs.begin_fault(0.2);
  EXPECT_DOUBLE_EQ(fs.voltage(), 0.2);  // deepest active fault wins
  EXPECT_EQ(fs.active_faults(), 2u);
  fs.end_fault(0.5);
  EXPECT_DOUBLE_EQ(fs.voltage(), 0.2);  // order-independent removal
  fs.end_fault(0.2);
  EXPECT_DOUBLE_EQ(fs.voltage(), 1.0);
  EXPECT_FALSE(fs.fault_active());
  EXPECT_EQ(fs.faults_seen(), 2u);
  EXPECT_GT(fs.voltage_epoch(), e0);  // every transition bumps the epoch

  // Draws reach the inner supply's bookkeeping.
  fs.draw(1e-15, 1e-15);
  EXPECT_EQ(bat.draw_count(), 1u);
  EXPECT_EQ(fs.draw_count(), 1u);

  // Recovery fires wake listeners so parked gates re-arm.
  bool woke = false;
  fs.on_wake([&] { woke = true; });
  fs.begin_fault(0.0);
  fs.end_fault(0.0);
  EXPECT_TRUE(woke);
}

// The wrapper must see every voltage change of the rail it forwards, and
// an invalid draw through it must leave that rail untouched.
TEST(FaultableSupplyTest, ChainsEpochAndGuardsDrawsOfItsInnerStore) {
  sim::Kernel kernel;
  supply::StorageCap store(kernel, "store", 1e-6, 1.0);
  FaultableSupply fs(store);
  const std::uint64_t e0 = fs.voltage_epoch();
  store.draw(1e-9, 1e-9);
  EXPECT_GT(fs.voltage_epoch(), e0);
  const double q0 = store.charge();
  fs.draw(std::nan(""), std::nan(""));
  EXPECT_DOUBLE_EQ(store.charge(), q0);
  EXPECT_EQ(fs.rejected_draws(), 1u);
  EXPECT_EQ(store.rejected_draws(), 1u);
}

TEST(FaultSmoke, EnvVarForcesTheWrapperUnderEveryBuild) {
  ASSERT_EQ(setenv("EMC_FAULT_SMOKE", "1", 1), 0);
  {
    auto ex = exp::ContextConfig::battery(1.0).build();
    ASSERT_NE(ex.fault_supply(), nullptr);
    // The forced wrapper IS the load rail the context hands to gates.
    EXPECT_EQ(static_cast<supply::Supply*>(ex.fault_supply()), &ex.supply());
  }
  ASSERT_EQ(unsetenv("EMC_FAULT_SMOKE"), 0);
  {
    auto ex = exp::ContextConfig::battery(1.0).build();
    EXPECT_EQ(ex.fault_supply(), nullptr);
  }
}

}  // namespace
}  // namespace emc::fault
