// Tests for the emc::exp experiment layer: ParamSet typing rules, Grid
// cartesian construction, Workbench schema binding + determinism under
// parallel sweeps, and SupplyConfig -> Supply elaboration per variant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/context_config.hpp"
#include "exp/param_set.hpp"
#include "exp/supply_config.hpp"
#include "exp/workbench.hpp"
#include "netlist/module.hpp"

namespace emc::exp {
namespace {

/// The rail beneath the optional fault wrapper. EMC_FAULT_SMOKE=1 (the
/// CI fault-smoke pass) interposes a transparent fault::FaultableSupply
/// in every build; structural-identity assertions unwrap it — and check
/// the wrapper points at the expected rail — so they hold in both runs.
supply::Supply* bare_rail(BuiltSupply& b) {
  return b.fault() != nullptr ? &b.fault()->inner() : &b.supply();
}

// --- ParamSet ----------------------------------------------------------

TEST(ParamSet, TypedRoundTrip) {
  ParamSet p;
  p.set("vdd", 0.25)
      .set("ticks", 42)
      .set("fast", true)
      .set("scheme", "banded");
  EXPECT_DOUBLE_EQ(p.get<double>("vdd"), 0.25);
  EXPECT_EQ(p.get<int>("ticks"), 42);
  EXPECT_EQ(p.get<std::int64_t>("ticks"), 42);
  EXPECT_EQ(p.get<std::uint64_t>("ticks"), 42u);
  EXPECT_TRUE(p.get<bool>("fast"));
  EXPECT_EQ(p.get<std::string>("scheme"), "banded");
  EXPECT_EQ(p.size(), 4u);
}

TEST(ParamSet, UnknownKeyThrows) {
  ParamSet p;
  p.set("vdd", 0.25);
  EXPECT_THROW(p.get<double>("vd"), ParamError);  // the typo the shim hid
  try {
    p.get<double>("quantum");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    // The message names both the missing and the known keys.
    EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("vdd"), std::string::npos);
  }
}

TEST(ParamSet, TypeMismatchThrows) {
  ParamSet p;
  p.set("vdd", 0.25).set("n", 3).set("name", "x");
  EXPECT_THROW(p.get<int>("vdd"), ParamError);
  EXPECT_THROW(p.get<std::string>("vdd"), ParamError);
  EXPECT_THROW(p.get<bool>("n"), ParamError);
  EXPECT_THROW(p.get<double>("name"), ParamError);
  // The one deliberate widening: int -> double.
  EXPECT_DOUBLE_EQ(p.get<double>("n"), 3.0);
  // Negative int -> unsigned is refused.
  p.set("neg", -2);
  EXPECT_THROW(p.get<std::uint64_t>("neg"), ParamError);
}

TEST(ParamSet, IntegerConversionsAreRangeChecked) {
  ParamSet p;
  // Unsigned beyond int64: refused at set() time, never wrapped negative.
  EXPECT_THROW(p.set("seed", std::uint64_t(1) << 63), ParamError);
  // In-range unsigned round-trips exactly.
  p.set("seed", (std::uint64_t(1) << 63) - 1);
  EXPECT_EQ(p.get<std::uint64_t>("seed"), (std::uint64_t(1) << 63) - 1);
  // int64 -> int truncation is refused, not silent.
  p.set("big", std::int64_t(1) << 40);
  EXPECT_THROW(p.get<int>("big"), ParamError);
  EXPECT_EQ(p.get<std::int64_t>("big"), std::int64_t(1) << 40);
}

TEST(ParamSet, DefaultsOnlyCoverAbsentKeys) {
  ParamSet p;
  p.set("vdd", 0.25);
  EXPECT_DOUBLE_EQ(p.get_or<double>("quantum", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(p.get_or<double>("vdd", 7.0), 0.25);
  // A *present* key of the wrong type still throws — defaults must not
  // mask grid typos.
  EXPECT_THROW(p.get_or<std::string>("vdd", std::string("x")), ParamError);
}

TEST(ParamSet, LabelsDeriveFromInsertionOrder) {
  ParamSet p;
  p.set("vdd", 0.25).set("seed", 11);
  EXPECT_EQ(p.label(), "vdd=0.25 seed=11");
  p.set_label("custom");
  EXPECT_EQ(p.label(), "custom");
  // Overwriting keeps position.
  ParamSet q;
  q.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(q.label(), "a=3 b=2");
}

// --- Grid --------------------------------------------------------------

TEST(Grid, CartesianOrderIsFirstAxisSlowest) {
  Grid g;
  g.over("vdd", {0.2, 0.4}).over("mode", std::vector<std::string>{"a", "b"});
  const auto pts = g.build();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].label(), "vdd=0.2 mode=a");
  EXPECT_EQ(pts[1].label(), "vdd=0.2 mode=b");
  EXPECT_EQ(pts[2].label(), "vdd=0.4 mode=a");
  EXPECT_EQ(pts[3].label(), "vdd=0.4 mode=b");
  EXPECT_EQ(g.size(), 4u);
}

TEST(Grid, BraceListedIntegerLiteralsStayTyped) {
  Grid g;
  g.over("K", {1, 2, 3});  // must not decay to a double axis
  const auto pts = g.build();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].get<int>("K"), 1);
  // And unsigned literals set cleanly (no overload ambiguity).
  ParamSet p;
  p.set("seed", 42u);
  EXPECT_EQ(p.get<std::uint64_t>("seed"), 42u);
}

TEST(Grid, DuplicateAxisNameThrows) {
  Grid g;
  g.over("vdd", {0.2, 0.4});
  EXPECT_THROW(g.over("vdd", {0.6, 0.8}), SchemaError);
}

TEST(Grid, EmptyAxisYieldsEmptyProduct) {
  Grid g;
  g.over("vdd", std::vector<double>{}).over("mode", {1.0, 2.0});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.build().empty());  // size() and build() must agree
  // Explicit points survive an empty cartesian block.
  g.add(ParamSet().set("vdd", 0.5));
  EXPECT_EQ(g.build().size(), 1u);
}

TEST(Grid, ExplicitPointsFollowCartesianBlock) {
  Grid g;
  g.over("v", {1.0});
  g.add(ParamSet().set("v", 9.0).set_label("extra"));
  const auto pts = g.build();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].label(), "extra");
}

TEST(Grid, ThreeAxisCountAndDeterminism) {
  Grid g;
  g.over("a", {1.0, 2.0, 3.0}).over("b", std::vector<int>{1, 2});
  g.over("c", std::vector<std::string>{"x", "y"});
  ASSERT_EQ(g.build().size(), 12u);
  // build() is pure: identical output on every call.
  const auto p1 = g.build();
  const auto p2 = g.build();
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].label(), p2[i].label());
  }
}

// --- Workbench ---------------------------------------------------------

TEST(Workbench, RowsBindToNamedColumns) {
  Workbench wb("t");
  wb.grid().over("x", {1.0, 2.0});
  wb.columns({"x", "y"});
  const auto& report = wb.run([](const ParamSet& p, Recorder& rec) {
    // Out-of-order set() must land in schema positions.
    rec.row().set("y", p.get<double>("x") * 10.0).set("x", p.get<double>("x"));
  });
  EXPECT_EQ(report.to_csv(), "x,y\n1,10\n2,20\n");
}

TEST(Workbench, UnknownColumnThrows) {
  Workbench wb("t");
  wb.grid().over("x", {1.0});
  wb.columns({"x"});
  EXPECT_THROW(wb.run([](const ParamSet&, Recorder& rec) {
                 rec.row().set("nope", 1.0);
               }),
               SchemaError);
}

TEST(Workbench, UnsetCellsReadAsDash) {
  Workbench wb("t");
  wb.grid().over("x", {1.0});
  wb.columns({"x", "y"});
  const auto& report = wb.run([](const ParamSet& p, Recorder& rec) {
    rec.row().set("x", p.get<double>("x"));
  });
  EXPECT_EQ(report.to_csv(), "x,y\n1,-\n");
}

TEST(Workbench, DeterministicAcrossThreadCountsUnderUnevenLoad) {
  // EMC_SWEEP_THREADS=4 is the CI configuration the determinism contract
  // names; an explicit thread override checks the same property.
  ASSERT_EQ(setenv("EMC_SWEEP_THREADS", "4", 1), 0);
  auto run_once = [](unsigned threads) {
    Workbench wb("t");
    if (threads > 0) wb.threads(threads);
    wb.grid().over("ticks",
                   std::vector<int>{4000, 10, 2000, 1, 800, 50, 3000, 5});
    wb.columns({"scenario", "fired"});
    wb.run([](const ParamSet& p, Recorder& rec) {
      sim::Kernel kernel;
      const auto ticks = p.get<std::uint64_t>("ticks");
      std::uint64_t fired = 0;
      for (std::uint64_t i = 0; i < ticks; ++i) {
        kernel.schedule(static_cast<sim::Time>(i % 11 + 1),
                        [&fired] { ++fired; });
      }
      kernel.run();
      rec.row().set("scenario", p.label()).set("fired", fired);
      rec.add_stats(kernel.stats());
    });
    return wb.report().to_csv();
  };
  const std::string env4 = run_once(0);   // EMC_SWEEP_THREADS=4
  const std::string t1 = run_once(1);
  const std::string t7 = run_once(7);
  ASSERT_EQ(unsetenv("EMC_SWEEP_THREADS"), 0);
  EXPECT_EQ(env4, t1);
  EXPECT_EQ(env4, t7);
  // Rows in scenario (grid) order, not completion order.
  EXPECT_LT(t1.find("ticks=4000"), t1.find("ticks=10"));
}

TEST(Workbench, RunStreamingMatchesMaterializedRunAtAnyThreadCount) {
  // A replicated grid, the shape of the Monte-Carlo figures: the body is
  // pure in (x, trial_seed), so streamed rows must equal the
  // materialized table row for row, with dense in-order indices.
  const auto bench = [](unsigned threads) {
    Workbench wb("t");
    wb.threads(threads);
    wb.grid().over("x", {1, 2, 3});
    wb.replicate(8, 77);
    wb.columns({"x", "trial", "v"});
    return wb;
  };
  const Workbench::Body body = [](const ParamSet& p, Recorder& rec) {
    const std::uint64_t s = p.get<std::uint64_t>("trial_seed");
    rec.row()
        .set("x", p.get<int>("x"))
        .set("trial", p.get<int>("trial"))
        .set("v", static_cast<double>(s % 1000) * 1e-3, 6);
  };
  Workbench materialized = bench(1);
  materialized.run(body);
  const std::string want = materialized.table().to_csv();

  for (unsigned threads : {1u, 4u, 7u}) {
    Workbench wb = bench(threads);
    std::string got = "x,trial,v\n";
    std::size_t next = 0;
    wb.run_streaming(
        [&](std::size_t i, const std::vector<std::string>& cells) {
          EXPECT_EQ(i, next++) << "threads = " << threads;
          got += cells[0] + "," + cells[1] + "," + cells[2] + "\n";
        },
        body);
    EXPECT_EQ(next, 24u);
    EXPECT_EQ(got, want) << "threads = " << threads;
  }
}

TEST(Workbench, ScenarioCountOverflowThrowsInsteadOfWrapping) {
  // 3 points x (2^64 / 3 + 1) trials wraps to 2 scenarios in a 64-bit
  // product; the run must refuse it before a single body runs.
  Workbench wb("t");
  wb.grid().over("x", {1, 2, 3});
  wb.replicate(std::numeric_limits<std::size_t>::max() / 3 + 1, 77);
  wb.columns({"x"});
  std::size_t bodies = 0;
  EXPECT_THROW(wb.run_streaming(
                   [](std::size_t, const std::vector<std::string>&) {},
                   [&](const ParamSet&, Recorder&) { ++bodies; }),
               std::overflow_error);
  EXPECT_EQ(bodies, 0u);
}

TEST(Workbench, ScenarioBridgeCarriesLabelAndShim) {
  Workbench wb("t");
  wb.scenarios({ParamSet().set("vdd", 0.3).set("seed", 7)});
  wb.columns({"label"});
  wb.run([](const ParamSet& p, Recorder& rec) {
    rec.row().set("label", p.label());
  });
  ASSERT_EQ(wb.scenario_params().size(), 1u);
  EXPECT_EQ(wb.report().to_csv(), "label\nvdd=0.3 seed=7\n");
}

// --- SupplyConfig elaboration per variant ------------------------------

TEST(SupplyConfig, BatteryElaborates) {
  sim::Kernel kernel;
  auto b = SupplyConfig::battery(0.8).name("rail").build(kernel);
  EXPECT_DOUBLE_EQ(b.supply().voltage(), 0.8);
  EXPECT_EQ(b.supply().name(), "rail");
  EXPECT_EQ(b.store(), nullptr);
  EXPECT_EQ(b.harvester(), nullptr);
}

TEST(SupplyConfig, AcElaborates) {
  sim::Kernel kernel;
  auto b = SupplyConfig::ac(0.2, 0.1, 1e6).build(kernel);
  ASSERT_NE(b.ac(), nullptr);
  EXPECT_DOUBLE_EQ(b.ac()->offset(), 0.2);
  EXPECT_DOUBLE_EQ(b.ac()->amplitude(), 0.1);
  EXPECT_DOUBLE_EQ(b.ac()->frequency(), 1e6);
  // At t=0 the sine starts at the offset.
  EXPECT_NEAR(b.supply().voltage(), 0.2, 1e-12);
}

TEST(SupplyConfig, StorageCapElaboratesWithModifiers) {
  sim::Kernel kernel;
  auto b = SupplyConfig::storage_cap(2e-6, 0.8)
               .wake_threshold(0.16)
               .max_voltage(1.0)
               .trace()
               .build(kernel);
  ASSERT_NE(b.store(), nullptr);
  EXPECT_DOUBLE_EQ(b.store()->capacitance(), 2e-6);
  EXPECT_DOUBLE_EQ(b.store()->voltage(), 0.8);
  EXPECT_DOUBLE_EQ(b.store()->wake_threshold(), 0.16);
  EXPECT_DOUBLE_EQ(b.store()->max_voltage(), 1.0);
  EXPECT_EQ(bare_rail(b), b.store());
}

TEST(SupplyConfig, SampleCapElaborates) {
  sim::Kernel kernel;
  auto b = SupplyConfig::sample_cap(100e-12, 0.5).build(kernel);
  ASSERT_NE(b.sample(), nullptr);
  EXPECT_DOUBLE_EQ(b.sample()->voltage(), 0.5);
  b.sample()->sample(0.9);
  EXPECT_NEAR(b.sample()->voltage(), 0.9, 1e-12);
}

TEST(SupplyConfig, PiecewiseElaborates) {
  sim::Kernel kernel;
  auto b = SupplyConfig::piecewise({{0, 0.25}, {sim::us(10), 1.0}})
               .build(kernel);
  EXPECT_NEAR(b.supply().voltage(), 0.25, 1e-12);
  kernel.run_until(sim::us(10));
  EXPECT_NEAR(b.supply().voltage(), 1.0, 1e-12);
}

TEST(SupplyConfig, DcdcElaboratesRegulatedChain) {
  sim::Kernel kernel;
  supply::DcdcParams params;
  params.vout = 0.6;
  auto b = SupplyConfig::dcdc(SupplyConfig::storage_cap(10e-6, 1.0), params)
               .build(kernel);
  ASSERT_NE(b.dcdc(), nullptr);
  ASSERT_NE(b.store(), nullptr);  // the input store is reachable
  EXPECT_EQ(bare_rail(b), b.dcdc());
  // auto-started: regulating already.
  EXPECT_DOUBLE_EQ(b.supply().voltage(), 0.6);
  // Output draws are billed to the input store.
  const double q_before = b.store()->charge();
  b.supply().draw(1e-9, 0.6e-9);
  EXPECT_LT(b.store()->charge(), q_before);
}

TEST(SupplyConfig, HarvestedElaboratesSeededChain) {
  sim::Kernel kernel;
  auto b = SupplyConfig::harvested(
               SupplyConfig::storage_cap(1e-6, 0.2).wake_threshold(0.18),
               supply::HarvesterProfile::vibration_200uw(), 42)
               .build(kernel);
  ASSERT_NE(b.harvester(), nullptr);
  ASSERT_NE(b.mppt(), nullptr);
  ASSERT_NE(b.store(), nullptr);
  EXPECT_EQ(bare_rail(b), b.store());
  // auto-started: energy flows into the store.
  kernel.run_until(sim::ms(5));
  EXPECT_GT(b.harvester()->total_energy_harvested(), 0.0);
  // Same seed => identical harvest trace (the determinism the Fig. 3
  // sweep depends on).
  sim::Kernel k2;
  auto b2 = SupplyConfig::harvested(
                SupplyConfig::storage_cap(1e-6, 0.2).wake_threshold(0.18),
                supply::HarvesterProfile::vibration_200uw(), 42)
                .build(k2);
  k2.run_until(sim::ms(5));
  EXPECT_DOUBLE_EQ(b2.harvester()->total_energy_harvested(),
                   b.harvester()->total_energy_harvested());
}

TEST(SupplyConfig, CompositeVariantsRequireCapInputs) {
  // Unconditional (not assert()): Release builds must refuse a DC-DC fed
  // from a battery instead of elaborating a 0 F store.
  EXPECT_THROW(
      SupplyConfig::dcdc(SupplyConfig::battery(1.0), supply::DcdcParams{}),
      ConfigError);
  EXPECT_THROW(SupplyConfig::harvested(
                   SupplyConfig::ac(0.2, 0.1, 1e6),
                   supply::HarvesterProfile::vibration_200uw(), 1),
               ConfigError);
}

TEST(SupplyConfig, DcdcPreservesExplicitInputCapName) {
  sim::Kernel kernel;
  auto named = SupplyConfig::dcdc(
                   SupplyConfig::storage_cap(1e-6, 1.0).name("vin"),
                   supply::DcdcParams{})
                   .build(kernel);
  EXPECT_EQ(named.store()->name(), "vin");
  auto defaulted = SupplyConfig::dcdc(SupplyConfig::storage_cap(1e-6, 1.0),
                                      supply::DcdcParams{})
                       .build(kernel);
  EXPECT_EQ(defaulted.store()->name(), "dcdc.in");
}

TEST(SupplyConfig, HarvestedWithoutMpptOrAutostart) {
  sim::Kernel kernel;
  auto b = SupplyConfig::harvested(SupplyConfig::storage_cap(1e-6, 0.2),
                                   supply::HarvesterProfile::steady(100e-6),
                                   1, sim::us(10), /*with_mppt=*/false,
                                   /*auto_start=*/false)
               .build(kernel);
  EXPECT_EQ(b.mppt(), nullptr);
  kernel.run_until(sim::ms(1));
  EXPECT_DOUBLE_EQ(b.harvester()->total_energy_harvested(), 0.0);
  b.start();
  kernel.run_until(sim::ms(2));
  EXPECT_GT(b.harvester()->total_energy_harvested(), 0.0);
}

TEST(SupplyConfig, DescriptorsAreCopyableValues) {
  SupplyConfig a = SupplyConfig::storage_cap(1e-6, 0.5).wake_threshold(0.2);
  SupplyConfig b = a;  // a scenario is data: copies are independent
  b.wake_threshold(0.3);
  sim::Kernel kernel;
  auto ba = a.build(kernel);
  auto bb = b.build(kernel);
  EXPECT_DOUBLE_EQ(ba.store()->wake_threshold(), 0.2);
  EXPECT_DOUBLE_EQ(bb.store()->wake_threshold(), 0.3);
}

// --- ContextConfig / Experiment ----------------------------------------

TEST(ContextConfig, BuildsFullContextOnOwnKernel) {
  auto ex = ContextConfig::battery(0.7).build();
  EXPECT_DOUBLE_EQ(ex.supply().voltage(), 0.7);
  ASSERT_NE(ex.meter(), nullptr);
  EXPECT_EQ(&ex.ctx().kernel, &ex.kernel());
  EXPECT_EQ(&ex.ctx().supply, &ex.supply());
  EXPECT_EQ(ex.ctx().meter, ex.meter());
  EXPECT_TRUE(ex.ctx().model.operational(0.7));
}

TEST(ContextConfig, BuildsOntoExternalKernelWithoutMeter) {
  sim::Kernel kernel;
  auto ex = ContextConfig::battery(1.0).meter(false).build(kernel);
  EXPECT_EQ(&ex.kernel(), &kernel);
  EXPECT_EQ(ex.meter(), nullptr);
  EXPECT_EQ(ex.ctx().meter, nullptr);
}

TEST(ContextConfig, ExperimentIsMovableWithStableContext) {
  auto ex = ContextConfig::battery(0.5).build();
  gates::Context* ctx_before = &ex.ctx();
  supply::Supply* supply_before = &ex.supply();
  Experiment moved = std::move(ex);
  EXPECT_EQ(&moved.ctx(), ctx_before);
  EXPECT_EQ(&moved.supply(), supply_before);
  EXPECT_DOUBLE_EQ(moved.supply().voltage(), 0.5);
}

// --- Circuit typed ownership (OwnedNode) -------------------------------

TEST(Circuit, TypedOwnershipIsIntrospectable) {
  auto ex = ContextConfig::battery(1.0).build();
  netlist::Circuit c(ex.ctx(), "c");
  sim::Wire& a = c.wire("a");
  sim::Wire& y = c.wire("y");
  c.comb("inv", gates::Op::kInv, {&a}, y);
  ASSERT_EQ(c.element_count(), 1u);
  // typeid name is implementation-defined but must mention the type.
  EXPECT_NE(std::string(c.element_type_name(0)).find("CombGate"),
            std::string::npos);
}

}  // namespace
}  // namespace emc::exp
