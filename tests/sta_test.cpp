// Static timing analyzer (emc::sta) tests.
//
// Same doctrine as lint_test: every timing rule gets a seeded-defect
// fixture that must trip it and a repaired twin that must not. The
// capstone is the static<->dynamic equivalence the whole layer exists
// for: a bundled counter with a deliberately shortened delay line is
// flagged T001 by the analyzer (no simulation) AND latches wrong counter
// values when actually simulated; the repaired twin passes the analyzer
// AND counts without a single error. The two views of the same timing
// defect must agree, in both directions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "async/bundled.hpp"
#include "async/counter.hpp"
#include "async/pipeline.hpp"
#include "device/delay_model.hpp"
#include "device/variation.hpp"
#include "exp/context_config.hpp"
#include "gates/delay_line.hpp"
#include "gates/energy_meter.hpp"
#include "lint/lint.hpp"
#include "netlist/module.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sta/session.hpp"
#include "sta/sta.hpp"
#include "supply/battery.hpp"

namespace emc::sta {
namespace {

struct Fixture {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::Battery supply;
  gates::EnergyMeter meter;
  gates::Context ctx;

  explicit Fixture(double vdd = 1.0)
      : supply(kernel, "vdd", vdd),
        meter(kernel, device::Tech::umc90(), &supply),
        ctx{kernel, model, supply, meter} {}
};

std::vector<const lint::Finding*> active(const lint::Report& r,
                                         const std::string& rule) {
  std::vector<const lint::Finding*> out;
  for (const auto& f : r.findings()) {
    if (f.rule == rule && !f.suppressed()) out.push_back(&f);
  }
  return out;
}

bool has_rule(const lint::Report& r, const std::string& rule) {
  return !active(r, rule).empty();
}

async::BundledParams counter_params(double margin) {
  async::BundledParams p;
  p.bits = 2;
  p.margin = margin;
  return p;
}

// ---- worst-case corner queries ------------------------------------------

TEST(StaVariation, WorstCaseBoxIsSymmetricAroundNominal) {
  const auto var = device::Variation::local(0.005, 0.02);
  const auto slow = var.worst_slow(3.0);
  const auto fast = var.worst_fast(3.0);
  EXPECT_NEAR(slow.vth_offset, 0.015, 1e-12);
  EXPECT_NEAR(slow.strength, 0.94, 1e-12);
  EXPECT_NEAR(fast.vth_offset, -0.015, 1e-12);
  EXPECT_NEAR(fast.strength, 1.06, 1e-12);

  // A corner shift folds into the box on top of the local sigmas.
  // Corner shift and drive, then the local Vth and strength sigmas.
  const device::Variation corner{0.01, 0.97, 0.005, 0.02};
  EXPECT_NEAR(corner.worst_slow(3.0).vth_offset, 0.025, 1e-12);
  EXPECT_NEAR(corner.worst_slow(3.0).strength, 1.0 - 0.03 - 0.06, 1e-12);
}

// ---- T001: bundled-data margin violation --------------------------------

TEST(StaT001, ShortenedDelayLineFlagged) {
  Fixture f;
  async::BundledCounter bc(f.ctx, "bc", counter_params(0.5));
  bc.circuit().declare_operating_range(0.8, 1.0);
  const Analysis a = analyze(bc.circuit());
  EXPECT_FALSE(a.vacuous);
  EXPECT_GT(a.arc_count, 0u);
  const auto t = active(a.report, "T001");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0]->subject, "bc.bundle");
  EXPECT_EQ(t[0]->severity, lint::Severity::kError);
}

TEST(StaT001, HealthyMarginPassesNominalAndCorner) {
  Fixture f;
  async::BundledCounter bc(f.ctx, "bc", counter_params(1.5));
  bc.circuit().declare_operating_range(0.8, 1.0);
  const Analysis a = analyze(bc.circuit());
  EXPECT_FALSE(has_rule(a.report, "T001"));
  EXPECT_FALSE(has_rule(a.report, "T003"));
  EXPECT_TRUE(a.report.clean());
  // Every curve point, corner rows included, meets the constraint.
  ASSERT_FALSE(a.curve.empty());
  for (const auto& p : a.curve) {
    EXPECT_TRUE(p.ok) << p.bundle << " at " << p.vdd
                      << (p.corner ? " (corner)" : "");
    EXPECT_GE(p.ratio, p.limit);
  }
}

TEST(StaT001, MarginCurveShrinksAsVddFalls) {
  // The paper's melt argument, read off the static curve: the elevated-
  // threshold datapath loses speed faster than the inverter line, so the
  // margin at the bottom of the range is strictly worse than at the top.
  Fixture f;
  async::BundledCounter bc(f.ctx, "bc", counter_params(1.5));
  bc.circuit().declare_operating_range(0.8, 1.0);
  const Analysis a = analyze(bc.circuit());
  double ratio_lo = 0.0, ratio_hi = 0.0;
  for (const auto& p : a.curve) {
    if (p.corner) continue;
    if (std::abs(p.vdd - a.range.lo) < 1e-9) ratio_lo = p.ratio;
    if (std::abs(p.vdd - a.range.hi) < 1e-9) ratio_hi = p.ratio;
  }
  ASSERT_GT(ratio_lo, 0.0);
  ASSERT_GT(ratio_hi, 0.0);
  EXPECT_LT(ratio_lo, ratio_hi);
}

// ---- T002: drifting isochronic fork --------------------------------------

TEST(StaT002, ThresholdAsymmetricForkFlagged) {
  Fixture f;
  netlist::Circuit c(f.ctx, "fork");
  sim::Wire& src = c.wire("src");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.mark_env_driven(src);
  c.comb("fast_leg", gates::Op::kBuf, {&src}, a, 0.0);
  c.comb("slow_leg", gates::Op::kBuf, {&src}, b, 0.15);
  c.declare_operating_range(0.3, 1.0);
  const Analysis an = analyze(c);
  const auto t = active(an.report, "T002");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0]->subject, "fork.src");
  EXPECT_EQ(t[0]->severity, lint::Severity::kWarning);
}

TEST(StaT002, MatchedThresholdForkPasses) {
  // Same fork, matched thresholds: delay is linear in load at fixed Vth,
  // so the branch skew is constant across the range — even with very
  // different loads there is nothing to drift.
  Fixture f;
  netlist::Circuit c(f.ctx, "fork");
  sim::Wire& src = c.wire("src");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.mark_env_driven(src);
  c.comb("light_leg", gates::Op::kBuf, {&src}, a, 0.0);
  c.comb("heavy_leg", gates::Op::kAnd, {&src, &a}, b, 0.0);
  c.declare_operating_range(0.3, 1.0);
  const Analysis an = analyze(c);
  EXPECT_FALSE(has_rule(an.report, "T002"));
}

// ---- T003: min-operating-Vdd mismatch ------------------------------------

TEST(StaT003, RangeBelowOperationalFloorFlagged) {
  Fixture f;
  netlist::Circuit c(f.ctx, "deep");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.mark_env_driven(in);
  c.comb("buf", gates::Op::kBuf, {&in}, out);
  // Claim operation down to 50 mV — far below the model's vmin_operate,
  // where no gate can switch at all.
  c.declare_operating_range(0.05, 1.0);
  const Analysis a = analyze(c);
  const auto t = active(a.report, "T003");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0]->subject, "deep");
  EXPECT_GT(a.min_functional_vdd, 0.05);
}

TEST(StaT003, RangeWithinFloorPasses) {
  Fixture f;
  netlist::Circuit c(f.ctx, "ok");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.mark_env_driven(in);
  c.comb("buf", gates::Op::kBuf, {&in}, out);
  c.declare_operating_range(0.3, 1.0);
  const Analysis a = analyze(c);
  EXPECT_FALSE(has_rule(a.report, "T003"));
  EXPECT_NEAR(a.min_functional_vdd, 0.3, 1e-9);
}

// ---- vacuous timing model -------------------------------------------------

TEST(StaVacuous, BundleWithoutArcsRefusesToPass) {
  Fixture f;
  netlist::Circuit c(f.ctx, "hollow");
  c.wire("trigger");
  c.wire("data");
  netlist::BundleInfo b;
  b.name = "hollow.bundle";
  b.trigger = "hollow.trigger";
  b.targets.push_back("hollow.data");
  c.note_bundle(b);
  const Analysis a = analyze(c);
  EXPECT_TRUE(a.vacuous);

  Session s;
  s.check(c);
  EXPECT_TRUE(s.vacuous());
  ASSERT_EQ(s.vacuous_subjects().size(), 1u);
  EXPECT_EQ(s.vacuous_subjects()[0], "hollow");
}

// ---- suppressions ---------------------------------------------------------

TEST(StaSuppression, LiveWaiverSilencesStaleWaiverSurfaces) {
  Fixture f;
  async::BundledCounter bc(f.ctx, "bc", counter_params(0.5));
  bc.circuit().declare_operating_range(0.8, 1.0);
  bc.circuit().suppress("T001", "bc.bundle",
                        "deliberately shortened line for this test");
  bc.circuit().suppress("T001", "bc.no_such_bundle",
                        "stale: nothing anchors here");
  const Analysis a = analyze(bc.circuit());
  // The live waiver suppresses the real T001...
  EXPECT_TRUE(active(a.report, "T001").empty());
  bool saw_suppressed_t001 = false;
  for (const auto& fi : a.report.findings()) {
    if (fi.rule == "T001" && fi.suppressed()) saw_suppressed_t001 = true;
  }
  EXPECT_TRUE(saw_suppressed_t001);
  // ...and the stale one is called out instead of rotting silently.
  const auto s = active(a.report, "S001");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0]->subject, "bc.no_such_bundle");
}

// ---- session aggregation --------------------------------------------------

TEST(StaSession, MarginCsvCarriesEveryCurvePoint) {
  Session s;
  async::BundledCounter bc(s.ctx(), "bc", counter_params(1.5));
  bc.circuit().declare_operating_range(0.8, 1.0);
  s.check(bc.circuit());
  EXPECT_GT(s.arc_count(), 0u);
  ASSERT_FALSE(s.margin_curve().empty());
  const std::string csv = s.margin_csv();
  EXPECT_EQ(csv.find("circuit,bundle,vdd,corner,trigger_s,datapath_s,ratio,"
                     "limit,ok"),
            0u);
  // Header + one line per point (nominal and corner rows).
  std::size_t lines = 0;
  for (char ch : csv) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, s.margin_curve().size() + 1);
}

TEST(StaSession, PetriSubjectsPassThroughClean) {
  // A figure hook that checks a Petri abstraction must work unchanged
  // under a timing session: the net has no timing surface, so it is
  // recorded as a (legitimately) clean subject, not skipped.
  Session s;
  async::MullerRing ring(s.ctx(), "ring", 6, 2);
  s.check(ring.circuit());
  EXPECT_TRUE(s.clean());
  EXPECT_FALSE(s.vacuous());
}

// ---- the rule catalog -----------------------------------------------------

TEST(StaCatalog, TimingRulesAreCataloged) {
  const auto& cat = rule_catalog();
  bool t1 = false, t2 = false, t3 = false;
  for (const auto& r : cat) {
    if (std::string(r.id) == "T001") {
      t1 = true;
      EXPECT_EQ(r.severity, lint::Severity::kError);
    }
    if (std::string(r.id) == "T002") {
      t2 = true;
      EXPECT_EQ(r.severity, lint::Severity::kWarning);
    }
    if (std::string(r.id) == "T003") {
      t3 = true;
      EXPECT_EQ(r.severity, lint::Severity::kError);
    }
  }
  EXPECT_TRUE(t1 && t2 && t3);
}

// ---- recorded arcs agree with the simulated gates -------------------------

/// Remembers the kernel time of a wire's latest change.
struct EdgeClock {
  sim::Kernel* kernel;
  sim::Time at = sim::kTimeMax;
  void on_change() { at = kernel->now(); }
};

/// Toggle `in` at t = 0 and require `out` to move exactly when the delay
/// model, evaluated on the arc `c` recorded from `in` to `out`, says so.
void expect_arc_matches_simulation(Fixture& f, const netlist::Circuit& c,
                                   sim::Wire& in, sim::Wire& out,
                                   double vdd) {
  const netlist::TimingArc* arc = nullptr;
  for (const auto& a : c.timing_arcs()) {
    if (a.from == in.name() && a.to == out.name()) arc = &a;
  }
  ASSERT_NE(arc, nullptr) << in.name() << " -> " << out.name();
  EdgeClock clock{&f.kernel};
  out.subscribe<&EdgeClock::on_change>(&clock);
  const bool before = out.read();
  in.set(!in.read());
  f.kernel.run_until(sim::kTimeMax);
  ASSERT_NE(out.read(), before) << arc->via << " never switched";
  EXPECT_EQ(clock.at,
            f.model.delay(vdd, arc->load * f.model.tech().c_inv,
                          arc->vth_offset, arc->strength))
      << arc->via;
}

TEST(Netlist, RecordedArcMatchesSimulatedDelay) {
  // One gate per builder at a fixed, low Vdd (where the delay is most
  // sensitive to load and threshold): the arc each builder records must
  // predict the simulated output edge to the tick.
  constexpr double kVdd = 0.6;
  {
    Fixture f(kVdd);
    netlist::Circuit c(f.ctx, "comb");
    sim::Wire& a = c.wire("a");
    sim::Wire& b = c.wire("b", true);
    sim::Wire& out = c.wire("out");
    c.comb("and", gates::Op::kAnd, {&a, &b}, out, 0.03);
    expect_arc_matches_simulation(f, c, a, out, kVdd);
  }
  {
    Fixture f(kVdd);
    netlist::Circuit c(f.ctx, "fn");
    sim::Wire& a = c.wire("a");
    sim::Wire& b = c.wire("b");
    sim::Wire& out = c.wire("out");
    c.function_gate(
        "xor", [](const std::vector<bool>& v) { return v[0] != v[1]; },
        {&a, &b}, out, 3.0, 2.5, 0.05);
    expect_arc_matches_simulation(f, c, a, out, kVdd);
  }
  {
    Fixture f(kVdd);
    netlist::Circuit c(f.ctx, "ce");
    sim::Wire& a = c.wire("a");
    sim::Wire& b = c.wire("b", true);
    sim::Wire& out = c.wire("out");
    c.celement("c", {&a, &b}, out, 0.02);
    expect_arc_matches_simulation(f, c, a, out, kVdd);
  }
  {
    Fixture f(kVdd);
    netlist::Circuit c(f.ctx, "dl");
    sim::Wire& in = c.wire("in");
    sim::Rng rng(7);
    gates::DelayLine line(c, "line", in, 1, 0.04, 0.01, &rng);
    // The stage's Monte-Carlo draw reaches the recorded arc.
    ASSERT_EQ(c.timing_arcs().size(), 1u);
    EXPECT_NE(c.timing_arcs()[0].vth_offset, 0.04);
    expect_arc_matches_simulation(f, c, in, line.output(), kVdd);
  }
}

// ---- capstone: static and dynamic verdicts agree --------------------------

TEST(StaCapstone, ShortLineFailsStaticallyAndDynamically) {
  // Static verdict: T001, no simulation.
  {
    Fixture f;
    async::BundledCounter bc(f.ctx, "bc", counter_params(0.5));
    bc.circuit().declare_operating_range(0.8, 1.0);
    const Analysis a = analyze(bc.circuit());
    EXPECT_TRUE(has_rule(a.report, "T001"));
    EXPECT_FALSE(a.report.clean());
  }
  // Dynamic verdict: the same counter, actually run at nominal Vdd,
  // latches unsettled datapath values — counted errors.
  {
    auto ex = exp::ContextConfig::battery(1.0).build();
    async::BundledCounter bc(ex.ctx(), "bc", counter_params(0.5));
    bc.start();
    ex.kernel().run_until(sim::us(6));
    EXPECT_GT(bc.count(), 0u);
    EXPECT_GT(bc.errors(), 0u);
  }
}

TEST(StaCapstone, RepairedLinePassesStaticallyAndDynamically) {
  // The repaired twin (healthy margin): statically clean over the same
  // range...
  {
    Fixture f;
    async::BundledCounter bc(f.ctx, "bc", counter_params(1.5));
    bc.circuit().declare_operating_range(0.8, 1.0);
    const Analysis a = analyze(bc.circuit());
    EXPECT_TRUE(a.report.clean());
    EXPECT_FALSE(a.vacuous);
  }
  // ...and dynamically error-free at both ends of that range.
  for (double vdd : {1.0, 0.8}) {
    auto ex = exp::ContextConfig::battery(vdd).build();
    async::BundledCounter bc(ex.ctx(), "bc", counter_params(1.5));
    bc.start();
    ex.kernel().run_until(sim::us(6));
    EXPECT_GT(bc.count(), 0u) << "at " << vdd << " V";
    EXPECT_EQ(bc.errors(), 0u) << "at " << vdd << " V";
  }
}

}  // namespace
}  // namespace emc::sta
