// Gate-library tests: truth tables (parameterized), C-element, toggle,
// delay line, completion detector, energy metering, stall/resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "device/delay_model.hpp"
#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/completion.hpp"
#include "gates/delay_line.hpp"
#include "gates/energy_meter.hpp"
#include "gates/toggle.hpp"
#include "netlist/module.hpp"
#include "supply/battery.hpp"
#include "supply/storage_cap.hpp"

namespace emc::gates {
namespace {

struct Fixture {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::Battery supply;
  EnergyMeter meter;
  Context ctx;

  explicit Fixture(double vdd = 1.0)
      : supply(kernel, "vdd", vdd),
        meter(kernel, device::Tech::umc90(), &supply),
        ctx{kernel, model, supply, meter} {}
};

// ---- truth tables (parameterized over op and input vector) --------------

using TruthCase = std::tuple<Op, std::vector<bool>, bool>;

class CombTruth : public ::testing::TestWithParam<TruthCase> {};

TEST_P(CombTruth, ComputesExpected) {
  const auto& [op, ins, expect] = GetParam();
  Fixture f;
  std::vector<std::unique_ptr<sim::Wire>> wires;
  std::vector<sim::Wire*> inputs;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    wires.push_back(
        std::make_unique<sim::Wire>(f.kernel, "i" + std::to_string(i), false));
    inputs.push_back(wires.back().get());
  }
  sim::Wire out(f.kernel, "out", false);
  CombGate g(f.ctx, "dut", op, inputs, out);
  for (std::size_t i = 0; i < ins.size(); ++i) inputs[i]->set(ins[i]);
  g.touch();
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_EQ(out.read(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, CombTruth,
    ::testing::Values(
        TruthCase{Op::kInv, {false}, true}, TruthCase{Op::kInv, {true}, false},
        TruthCase{Op::kBuf, {true}, true}, TruthCase{Op::kBuf, {false}, false},
        TruthCase{Op::kAnd, {true, true}, true},
        TruthCase{Op::kAnd, {true, false}, false},
        TruthCase{Op::kNand, {true, true}, false},
        TruthCase{Op::kNand, {false, true}, true},
        TruthCase{Op::kOr, {false, false}, false},
        TruthCase{Op::kOr, {false, true}, true},
        TruthCase{Op::kNor, {false, false}, true},
        TruthCase{Op::kNor, {true, false}, false},
        TruthCase{Op::kXor, {true, false}, true},
        TruthCase{Op::kXor, {true, true}, false},
        TruthCase{Op::kXnor, {true, true}, true},
        TruthCase{Op::kXnor, {true, false}, false},
        TruthCase{Op::kXor, {true, true, true}, true},
        TruthCase{Op::kNand, {true, true, true}, false},
        TruthCase{Op::kMaj3, {true, true, false}, true},
        TruthCase{Op::kMaj3, {true, false, false}, false}));

// ---- inertial behaviour ---------------------------------------------------

/// Records the kernel time of a wire's most recent change.
struct ChangeTime {
  explicit ChangeTime(sim::Wire& w) { w.subscribe<&ChangeTime::record>(this); }
  void record(const sim::Wire& w) { at = w.kernel().now(); }
  sim::Time at = 0;
};

TEST(CombGate, SwallowsSubDelayPulse) {
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  sim::Wire out(f.kernel, "out", true);
  CombGate inv(f.ctx, "inv", Op::kInv, {&in}, out);
  // Pulse much shorter than the gate delay (~40 ps at 1 V).
  f.kernel.schedule(100 * sim::kPicosecond, [&] { in.set(true); });
  f.kernel.schedule(105 * sim::kPicosecond, [&] { in.set(false); });
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(out.read());
  EXPECT_EQ(out.transitions(), 0u);  // pulse fully filtered
}

TEST(CombGate, PropagationDelayMatchesModel) {
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  sim::Wire out(f.kernel, "out", true);
  CombGate inv(f.ctx, "inv", Op::kInv, {&in}, out);
  const ChangeTime changed(out);
  in.set(true);
  f.kernel.run_until(sim::kTimeMax);
  const auto expected = f.model.delay(
      1.0, factors_for(Op::kInv, 1).cap * f.model.tech().c_inv *
               factors_for(Op::kInv, 1).delay);
  EXPECT_EQ(changed.at, expected);
}

TEST(Gate, DelayFollowsDeviceChangeOnAConstantSupply) {
  // A battery's voltage epoch never moves, so only the device change
  // can make the next scheduled delay differ: the arena's set_device
  // must reset the delay's own stamp as well as the refresh stamp.
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  sim::Wire out(f.kernel, "out", true);
  CombGate inv(f.ctx, "inv", Op::kInv, {&in}, out);
  const ChangeTime changed(out);
  const double cload = factors_for(Op::kInv, 1).cap * f.model.tech().c_inv *
                       factors_for(Op::kInv, 1).delay;
  const std::uint64_t epoch = f.supply.voltage_epoch();

  in.set(true);
  f.kernel.run_until(sim::kTimeMax);
  const sim::Time before = f.model.delay(1.0, cload, 0.0, 1.0);
  EXPECT_EQ(changed.at, before);

  // The fixture's only element holds the arena's first slot.
  f.ctx.drives.set_device(0, 0.08, 1.0);
  const sim::Time t1 = f.kernel.now();
  in.set(false);
  f.kernel.run_until(sim::kTimeMax);
  const sim::Time after = f.model.delay(1.0, cload, 0.08, 1.0);
  EXPECT_NE(after, before);  // the device change is visible in the delay
  EXPECT_EQ(changed.at - t1, after);

  f.ctx.drives.set_device(0, 0.08, 2.0);
  const sim::Time t2 = f.kernel.now();
  in.set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_EQ(changed.at - t2, f.model.delay(1.0, cload, 0.08, 2.0));
  EXPECT_EQ(f.supply.voltage_epoch(), epoch);
}

TEST(CombGate, SelfLoopOscillates) {
  Fixture f;
  sim::Wire osc(f.kernel, "osc", false);
  CombGate inv(f.ctx, "inv", Op::kInv, {&osc}, osc);
  inv.touch();
  f.kernel.run_until(sim::ns(10));
  // ~40 ps per half period at 1 V -> ~250 transitions in 10 ns.
  EXPECT_GT(osc.transitions(), 100u);
  EXPECT_GT(f.supply.total_energy_drawn(), 0.0);
}

// ---- stall and resume ------------------------------------------------------

TEST(Gate, StallsBelowVminAndResumesOnWake) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::StorageCap cap(kernel, "cap", 1e-12, 0.05);  // starts dead
  EnergyMeter meter(kernel, device::Tech::umc90(), &cap);
  Context ctx{kernel, model, cap, meter};
  sim::Wire in(kernel, "in", false);
  sim::Wire out(kernel, "out", true);
  CombGate inv(ctx, "inv", Op::kInv, {&in}, out);
  in.set(true);
  kernel.run_until(sim::us(1));
  EXPECT_TRUE(out.read());  // nothing happened: stalled
  EXPECT_TRUE(inv.stalled());
  // Recharge above the wake threshold: the gate must finish the job.
  cap.set_wake_threshold(0.16);
  cap.deposit_charge(1.0 * 1e-12);  // -> ~1 V
  kernel.run_until(sim::us(2));
  EXPECT_FALSE(out.read());
  EXPECT_FALSE(inv.stalled());
}

// ---- C-element --------------------------------------------------------------

TEST(CElement, RisesOnAllOnesFallsOnAllZeros) {
  Fixture f;
  sim::Wire a(f.kernel, "a", false), b(f.kernel, "b", false);
  sim::Wire c(f.kernel, "c", false);
  CElement ce(f.ctx, "ce", {&a, &b}, c);
  a.set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_FALSE(c.read());  // holds at 0 (only one input high)
  b.set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(c.read());
  a.set(false);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(c.read());  // holds at 1
  b.set(false);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_FALSE(c.read());
}

// ---- toggle -----------------------------------------------------------------

TEST(Toggle, AlternatesDotAndBlank) {
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  sim::Wire dot(f.kernel, "dot", false), blank(f.kernel, "blank", false);
  Toggle t(f.ctx, "t", in, dot, blank);
  for (int i = 1; i <= 4; ++i) {
    in.set((i % 2) == 1);
    f.kernel.run_until(sim::kTimeMax);
  }
  // 4 input events: dot moved on 1st & 3rd, blank on 2nd & 4th.
  EXPECT_EQ(dot.transitions(), 2u);
  EXPECT_EQ(blank.transitions(), 2u);
  EXPECT_EQ(t.fires(), 4u);
}

TEST(Toggle, QueuesBurstsWithoutLoss) {
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  sim::Wire dot(f.kernel, "dot", false), blank(f.kernel, "blank", false);
  Toggle t(f.ctx, "t", in, dot, blank);
  // Fire input edges much faster than the toggle's internal delay.
  for (int i = 1; i <= 10; ++i) {
    f.kernel.schedule(i * sim::kPicosecond,
                      [&in, i] { in.set((i % 2) == 1); });
  }
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_EQ(t.fires(), 10u);
  EXPECT_EQ(dot.transitions() + blank.transitions(), 10u);
}

// ---- delay line ---------------------------------------------------------------

TEST(DelayLine, WavefrontPropagatesInOrder) {
  Fixture f;
  netlist::Circuit c(f.ctx, "top");
  sim::Wire& in = c.wire("in");
  DelayLine line(c, "dl", in, 16);
  EXPECT_EQ(line.thermometer_code(), 0u);
  in.set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_EQ(line.thermometer_code(), 16u);
}

TEST(DelayLine, PartialWavefrontGivesPartialCode) {
  Fixture f;
  netlist::Circuit c(f.ctx, "top");
  sim::Wire& in = c.wire("in");
  DelayLine line(c, "dl", in, 32);
  in.set(true);
  // One inverter ~ 40 ps at 1 V; stop mid-flight.
  f.kernel.run_until(40 * 10 * sim::kPicosecond);
  const std::size_t code = line.thermometer_code();
  EXPECT_GT(code, 4u);
  EXPECT_LT(code, 16u);
}

// ---- completion detector --------------------------------------------------------

/// `n` dual-rail bits as wires of `c`, all NULL.
std::vector<DualRailWire> rails(netlist::Circuit& c, int n) {
  std::vector<DualRailWire> bits;
  for (int i = 0; i < n; ++i) {
    bits.push_back(DualRailWire{&c.wire("t" + std::to_string(i)),
                                &c.wire("f" + std::to_string(i))});
  }
  return bits;
}

TEST(CompletionDetector, FiresOnAllValidFallsOnAllNull) {
  Fixture f;
  netlist::Circuit c(f.ctx, "top");
  const std::vector<DualRailWire> bits = rails(c, 4);
  CompletionDetector cd(c, "cd", bits);
  // Drive 3 of 4 bits valid: no done.
  bits[0].t->set(true);
  bits[1].f->set(true);
  bits[2].t->set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_FALSE(cd.done().read());
  bits[3].f->set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(cd.done().read());
  // Partially to NULL: done holds (C-element memory).
  bits[0].t->set(false);
  bits[1].f->set(false);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(cd.done().read());
  bits[2].t->set(false);
  bits[3].f->set(false);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_FALSE(cd.done().read());
}

TEST(CompletionDetector, WideTreeRespectsFanin) {
  Fixture f;
  netlist::Circuit c(f.ctx, "top");
  const std::vector<DualRailWire> bits = rails(c, 16);
  CompletionDetector cd(c, "cd", bits, /*max_fanin=*/2);
  EXPECT_EQ(cd.bit_count(), 16u);
  EXPECT_EQ(cd.tree_depth(), 4u);  // 16 -> 8 -> 4 -> 2 -> 1
  for (auto& b : bits) b.t->set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(cd.done().read());
}

// ---- energy meter -----------------------------------------------------------------

TEST(EnergyMeter, AccountsTransitionsAndRollsUp) {
  Fixture f;
  sim::Wire a(f.kernel, "a", false), x(f.kernel, "x", true),
      y(f.kernel, "y", true);
  CombGate g1(f.ctx, "top.sub1.inv", Op::kInv, {&a}, x);
  CombGate g2(f.ctx, "top.sub2.inv", Op::kInv, {&a}, y);
  a.set(true);
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_EQ(f.meter.total_transitions(), 2u);
  EXPECT_GT(f.meter.dynamic_energy(), 0.0);
  const auto by_mod = f.meter.energy_by_prefix(2);
  EXPECT_EQ(by_mod.size(), 2u);
  EXPECT_TRUE(by_mod.count("top.sub1"));
  // Leakage integrates over time.
  f.kernel.schedule(sim::us(1), [] {});
  f.kernel.run_until(sim::kTimeMax);
  f.meter.integrate_leakage();
  EXPECT_GT(f.meter.leakage_energy(), 0.0);
}

TEST(EnergyMeter, EnergyScalesWithVddSquared) {
  auto run_at = [](double vdd) {
    Fixture f(vdd);
    sim::Wire in(f.kernel, "in", false);
    sim::Wire out(f.kernel, "out", true);
    CombGate g(f.ctx, "inv", Op::kInv, {&in}, out);
    in.set(true);
    f.kernel.run_until(sim::kTimeMax);
    return f.meter.dynamic_energy();
  };
  EXPECT_NEAR(run_at(1.0) / run_at(0.5), 4.0, 0.01);
}

}  // namespace
}  // namespace emc::gates
