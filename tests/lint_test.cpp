// Static analyzer (emc::lint) tests.
//
// Each rule gets a seeded-defect fixture that must trip it and a
// repaired twin that must not — golden per-rule coverage rather than
// one smoke test over a big circuit. On top of that:
//   * the production circuits register complete inventories (clean
//     bill over MullerRing / counters / SiSram, with the deliberate
//     oscillators' C001 suppressions honored);
//   * Session aggregates reports, refuses to vacuously pass an empty
//     session, and emits well-formed JSON (checked by the
//     recursive-descent JsonChecker in json_checker.hpp, shared with the
//     repro tests);
//   * the capstone: a handshake source with no sink is flagged D001/H001
//     statically AND classified `deadlocked` by Kernel::run_guarded
//     dynamically — the two views of the same broken protocol agree.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "async/bundled.hpp"
#include "async/counter.hpp"
#include "async/handshake.hpp"
#include "async/pipeline.hpp"
#include "device/delay_model.hpp"
#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/energy_meter.hpp"
#include "lint/lint.hpp"
#include "lint/session.hpp"
#include "netlist/module.hpp"
#include "sched/petri.hpp"
#include "sensor/ring_oscillator.hpp"
#include "sim/kernel.hpp"
#include "sram/si_controller.hpp"
#include "supply/battery.hpp"

#include "json_checker.hpp"

namespace emc::lint {
namespace {

using test::JsonChecker;

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

/// Findings for `rule` that are not suppressed.
std::vector<const Finding*> active(const Report& r, const std::string& rule) {
  std::vector<const Finding*> out;
  for (const auto& f : r.findings()) {
    if (f.rule == rule && !f.suppressed()) out.push_back(&f);
  }
  return out;
}

bool has_rule(const Report& r, const std::string& rule) {
  return !active(r, rule).empty();
}

// ---- W001: undriven wire ------------------------------------------------

TEST(LintW001, FloatingInputFlagged) {
  Fixture f;
  netlist::Circuit c(f.ctx, "w1");
  sim::Wire& in = c.wire("in");  // no driver, not env-driven
  sim::Wire& out = c.wire("out");
  c.comb("buf", gates::Op::kBuf, {&in}, out);
  const Report r = analyze(c);
  const auto w = active(r, "W001");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0]->subject, "w1.in");
  EXPECT_FALSE(r.clean());
}

TEST(LintW001, EnvDrivenAndExternalWiresExempt) {
  Fixture f;
  netlist::Circuit c(f.ctx, "w1ok");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.comb("buf", gates::Op::kBuf, {&in}, out);
  c.mark_env_driven(in);

  sim::Wire foreign(f.kernel, "elsewhere.port", false);
  sim::Wire& out2 = c.wire("out2");
  c.note_external_wire(foreign.name());
  c.comb("buf2", gates::Op::kBuf, {&foreign}, out2);

  EXPECT_FALSE(has_rule(analyze(c), "W001"));
}

// ---- W002: multiply-driven wire -----------------------------------------

TEST(LintW002, DriveFightFlagged) {
  Fixture f;
  netlist::Circuit c(f.ctx, "w2");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  sim::Wire& out = c.wire("out");
  c.mark_env_driven(a);
  c.mark_env_driven(b);
  c.comb("g1", gates::Op::kBuf, {&a}, out);
  c.comb("g2", gates::Op::kInv, {&b}, out);  // second driver: fight
  const Report r = analyze(c);
  const auto w = active(r, "W002");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0]->subject, "w2.out");
}

// ---- W003: element with no recorded edges -------------------------------

TEST(LintW003, EmplaceWithoutNoteEdgeFailsLoudly) {
  Fixture f;
  netlist::Circuit c(f.ctx, "w3");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.mark_env_driven(in);
  // emplace<> does NOT record connectivity — forgetting note_edge() used
  // to leave silent blind spots in the graph; now it is an error.
  c.emplace<gates::CombGate>(f.ctx, "w3.buf", gates::Op::kBuf,
                             std::vector<sim::Wire*>{&in}, out);
  const Report r = analyze(c);
  const auto w = active(r, "W003");
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0]->subject, "w3.buf");

  // Repaired twin: same build plus the edges — clean.
  netlist::Circuit ok(f.ctx, "w3ok");
  sim::Wire& in2 = ok.wire("in");
  sim::Wire& out2 = ok.wire("out");
  ok.mark_env_driven(in2);
  ok.emplace<gates::CombGate>(f.ctx, "w3ok.buf", gates::Op::kBuf,
                              std::vector<sim::Wire*>{&in2}, out2);
  ok.note_edge(in2.name(), "w3ok.buf");
  ok.note_edge("w3ok.buf", out2.name());
  EXPECT_FALSE(has_rule(analyze(ok), "W003"));
}

// ---- C001: combinational cycle ------------------------------------------

TEST(LintC001, PureCombLoopFlagged) {
  Fixture f;
  netlist::Circuit c(f.ctx, "c1");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.comb("inv1", gates::Op::kInv, {&a}, b);
  c.comb("inv2", gates::Op::kInv, {&b}, a);  // comb loop, no state
  const Report r = analyze(c);
  const auto w = active(r, "C001");
  ASSERT_EQ(w.size(), 1u);
  // Deterministic anchor: lexicographically smallest member.
  EXPECT_EQ(w[0]->subject, "c1.inv1");
  EXPECT_EQ(w[0]->members.size(), 2u);
}

TEST(LintC001, CElementInLoopBreaksCycle) {
  Fixture f;
  netlist::Circuit c(f.ctx, "c1ok");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.comb("inv", gates::Op::kInv, {&a}, b);
  // State-holding element closes the loop: a latch, not an oscillator.
  auto& ce = c.emplace<gates::CElement>(
      f.ctx, "c1ok.ce", std::vector<sim::Wire*>{&b}, a);
  (void)ce;
  c.note_edge(b.name(), "c1ok.ce");
  c.note_edge("c1ok.ce", a.name());
  EXPECT_FALSE(has_rule(analyze(c), "C001"));
}

TEST(LintC001, SuppressionWaivesButStillReports) {
  Fixture f;
  netlist::Circuit c(f.ctx, "c1s");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.comb("inv1", gates::Op::kInv, {&a}, b);
  c.comb("inv2", gates::Op::kInv, {&b}, a);
  // Suppressing by a non-anchor member must also match (cycle findings
  // match subject OR any member).
  c.suppress("C001", "c1s.inv2", "deliberate oscillator (test)");
  const Report r = analyze(c);
  EXPECT_TRUE(r.clean());
  bool seen = false;
  for (const auto& fd : r.findings()) {
    if (fd.rule == "C001") {
      seen = true;
      EXPECT_TRUE(fd.suppressed());
      EXPECT_EQ(fd.suppressed_reason, "deliberate oscillator (test)");
    }
  }
  EXPECT_TRUE(seen);  // waived, not hidden
}

TEST(LintS001, StaleWaiverSurfacesLiveWaiverDoesNot) {
  Fixture f;
  netlist::Circuit c(f.ctx, "c1s");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.comb("inv1", gates::Op::kInv, {&a}, b);
  c.comb("inv2", gates::Op::kInv, {&b}, a);
  // One live waiver (matches the C001 cycle) and one stale one (its
  // subject was "renamed away" - it anchors to nothing).
  c.suppress("C001", "c1s.inv1", "deliberate oscillator (test)");
  c.suppress("C001", "c1s.inv_gone", "left behind after a refactor");
  const Report r = analyze(c);
  EXPECT_TRUE(r.clean());  // S001 is informational
  const auto stale = active(r, "S001");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0]->subject, "c1s.inv_gone");
  EXPECT_NE(stale[0]->detail.find("left behind after a refactor"),
            std::string::npos);
}

TEST(LintS001, ForeignRuleWaiverIsNotStaleHere) {
  // A T-rule (timing) waiver matched nothing because the *lint* pass
  // never emits T-rules - that is not staleness, and flagging it would
  // force every bundled-data figure to choose between a false S001 in
  // lint and a missing waiver in sta.
  Fixture f;
  netlist::Circuit c(f.ctx, "tw");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.mark_env_driven(in);
  c.comb("buf", gates::Op::kBuf, {&in}, out);
  c.suppress("T001", "tw.bundle", "margin collapse is the figure's point");
  const Report r = analyze(c);
  EXPECT_TRUE(active(r, "S001").empty());
  EXPECT_TRUE(r.clean());
}

// ---- H001: unpaired handshake -------------------------------------------

TEST(LintH001, SourceWithoutSinkFlagged) {
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(f.ctx, "src", ch);
  netlist::Circuit c(f.ctx, "h1");
  src.register_in(c);  // nobody ever drives ack
  const Report r = analyze(c);
  EXPECT_TRUE(has_rule(r, "H001"));
  EXPECT_FALSE(r.clean());
}

TEST(LintH001, ClosedPairClean) {
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(f.ctx, "src", ch);
  async::HandshakeSink sink(f.ctx, "sink", ch, 2.0);
  netlist::Circuit c(f.ctx, "h1ok");
  src.register_in(c);
  sink.register_in(c);
  const Report r = analyze(c);
  EXPECT_FALSE(has_rule(r, "H001"));
  EXPECT_FALSE(has_rule(r, "D001"));
  EXPECT_TRUE(r.clean());
}

// ---- D001: structural deadlock (token-free cycles) ----------------------

TEST(LintD001, TokenFreeCycleInPetriNet) {
  sim::Kernel kernel;
  sched::EnergyPetriNet net(kernel);
  const auto p1 = net.add_place("p1", 0);
  const auto p2 = net.add_place("p2", 0);
  net.add_transition("t12", {p1}, {p2}, 0, sim::us(1));
  net.add_transition("t21", {p2}, {p1}, 0, sim::us(1));
  const Report r = analyze(net);
  EXPECT_TRUE(has_rule(r, "D001"));

  // One token anywhere on the cycle makes it live.
  sched::EnergyPetriNet live(kernel);
  const auto q1 = live.add_place("q1", 1);
  const auto q2 = live.add_place("q2", 0);
  live.add_transition("t12", {q1}, {q2}, 0, sim::us(1));
  live.add_transition("t21", {q2}, {q1}, 0, sim::us(1));
  EXPECT_FALSE(has_rule(analyze(live), "D001"));
}

TEST(LintD001, UnansweredChannelYieldsTokenFreeHandshakeCycle) {
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(f.ctx, "src", ch);
  netlist::Circuit c(f.ctx, "d1");
  src.register_in(c);

  sim::Kernel scratch;
  sched::EnergyPetriNet net(scratch);
  handshake_petri(c, net);
  EXPECT_TRUE(has_rule(analyze(net), "D001"));
  // analyze(Circuit) runs the same abstraction internally.
  EXPECT_TRUE(has_rule(analyze(c), "D001"));
}

// ---- F001: isochronic fork (informational) ------------------------------

TEST(LintF001, ForkWithoutCompletionDetectionIsInfoOnly) {
  Fixture f;
  netlist::Circuit c(f.ctx, "f1");
  sim::Wire& in = c.wire("in");
  sim::Wire& o1 = c.wire("o1");
  sim::Wire& o2 = c.wire("o2");
  c.mark_env_driven(in);
  c.comb("g1", gates::Op::kBuf, {&in}, o1);
  c.comb("g2", gates::Op::kInv, {&in}, o2);  // `in` forks to g1 and g2
  const Report r = analyze(c);
  bool fork_seen = false;
  for (const auto& fd : r.findings()) {
    if (fd.rule == "F001") {
      fork_seen = true;
      EXPECT_EQ(fd.severity, Severity::kInfo);
      EXPECT_EQ(fd.subject, "f1.in");
    }
  }
  EXPECT_TRUE(fork_seen);
  EXPECT_TRUE(r.clean());  // info findings never dirty a report
}

TEST(LintF001, DownstreamCElementSilencesFork) {
  Fixture f;
  netlist::Circuit c(f.ctx, "f1ok");
  sim::Wire& in = c.wire("in");
  sim::Wire& o1 = c.wire("o1");
  sim::Wire& o2 = c.wire("o2");
  sim::Wire& done = c.wire("done");
  c.mark_env_driven(in);
  c.comb("g1", gates::Op::kBuf, {&in}, o1);
  c.comb("g2", gates::Op::kInv, {&in}, o2);
  c.emplace<gates::CElement>(f.ctx, "f1ok.ce",
                             std::vector<sim::Wire*>{&o1, &o2}, done);
  c.note_edge(o1.name(), "f1ok.ce");
  c.note_edge(o2.name(), "f1ok.ce");
  c.note_edge("f1ok.ce", done.name());
  EXPECT_FALSE(has_rule(analyze(c), "F001"));
}

// ---- clean bill over the production circuits ----------------------------

TEST(LintCleanBill, ProductionCircuitsAnalyzeClean) {
  Session s;
  async::MullerRing ring(s.ctx(), "ring", 6, 2);
  s.check(ring.circuit());
  async::DualRailCounter drc(s.ctx(), "drc", 2);
  s.check(drc.circuit());
  async::BundledCounter bc(s.ctx(), "bc", async::BundledParams{});
  s.check(bc.circuit());
  async::ToggleRippleCounter trc(s.ctx(), "trc", 4);
  s.check(trc.circuit());
  sram::SiSram sram(s.ctx(), "sram", sram::SiSramParams{});
  s.check(sram.circuit());
  sensor::RingOscillatorSensor ro(s.ctx(), "ro", sensor::RingOscParams{});
  s.check(ro.circuit());
  EXPECT_TRUE(s.clean()) << s.text();
  EXPECT_EQ(s.results().size(), 6u);
}

// ---- Session semantics --------------------------------------------------

TEST(LintSession, EmptySessionIsNotClean) {
  Session s;
  EXPECT_FALSE(s.clean());  // vacuous pass refused
}

TEST(LintSession, FilterRulesImplementsTheOnlyFlagContract) {
  // The CLI's --only filter: restricted to a rule the circuit passes,
  // the session reads clean (exit 0); unrestricted, the seeded defect
  // still fails it (exit 1). Filtering must not empty the subject list,
  // or --only would turn the vacuous-pass refusal off.
  Session s;
  netlist::Circuit c(s.ctx(), "bad");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.comb("buf", gates::Op::kBuf, {&in}, out);  // `in` floats: W001
  s.check(c);
  EXPECT_FALSE(s.clean());
  s.filter_rules({"C001"});
  EXPECT_TRUE(s.clean());
  EXPECT_EQ(s.results().size(), 1u);
  EXPECT_EQ(s.findings(Severity::kWarning), 0u);

  Session s2;
  netlist::Circuit c2(s2.ctx(), "bad2");
  sim::Wire& in2 = c2.wire("in");
  sim::Wire& out2 = c2.wire("out");
  c2.comb("buf", gates::Op::kBuf, {&in2}, out2);
  s2.check(c2);
  s2.filter_rules({"W001", "C001"});
  EXPECT_FALSE(s2.clean());  // the filtered-in rule still fails
}

TEST(LintSession, DirtySubjectDirtiesSession) {
  Session s;
  netlist::Circuit c(s.ctx(), "bad");
  sim::Wire& in = c.wire("in");
  sim::Wire& out = c.wire("out");
  c.comb("buf", gates::Op::kBuf, {&in}, out);  // `in` floats: W001
  s.check(c);
  EXPECT_FALSE(s.clean());
  EXPECT_GE(s.findings(Severity::kWarning), 1u);
  EXPECT_NE(s.text().find("W001"), std::string::npos);
}

// ---- JSON well-formedness -------------------------------------------------

TEST(LintJson, SessionJsonWellFormedIncludingDefectDetails) {
  Session s;
  // A dirty circuit whose finding details carry characters that need
  // escaping ("quotes", backslash) plus a clean one.
  netlist::Circuit bad(s.ctx(), "bad\"name\\x");
  sim::Wire& in = bad.wire("in");
  sim::Wire& out = bad.wire("out");
  bad.comb("buf", gates::Op::kBuf, {&in}, out);
  s.check(bad);
  async::MullerRing ring(s.ctx(), "ring", 6, 2);
  s.check(ring.circuit());

  const std::string j = s.json();
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
  EXPECT_NE(j.find("\"W001\""), std::string::npos);
}

TEST(LintJson, ReportJsonWellFormed) {
  Fixture f;
  netlist::Circuit c(f.ctx, "c1");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  c.comb("inv1", gates::Op::kInv, {&a}, b);
  c.comb("inv2", gates::Op::kInv, {&b}, a);
  c.suppress("C001", "c1.inv1", "test \"reason\" with\\escapes");
  const std::string j = analyze(c).json("c1");
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
}

// ---- rule catalog -------------------------------------------------------

TEST(LintCatalog, AllRulesListedWithStableIds) {
  const auto& cat = rule_catalog();
  std::vector<std::string> ids;
  for (const auto& r : cat) ids.push_back(r.id);
  for (const char* want :
       {"W001", "W002", "W003", "C001", "H001", "D001", "F001"}) {
    bool found = false;
    for (const auto& id : ids) found = found || id == want;
    EXPECT_TRUE(found) << want;
  }
}

// ---- capstone: static D001 == dynamic `deadlocked` ----------------------

TEST(LintCapstone, StaticDeadlockMatchesRunGuardedVerdict) {
  // One topology, two analyses. A handshake source whose channel has no
  // sink: the request will never be acknowledged.
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  async::Channel ch{&req, &ack};
  async::HandshakeSource src(f.ctx, "src", ch);

  // Static: the linter proves the 4-phase cycle token-free (D001) and
  // the channel unanswerable (H001) without executing an event.
  netlist::Circuit c(f.ctx, "capstone");
  src.register_in(c);
  const Report r = analyze(c);
  EXPECT_TRUE(has_rule(r, "D001"));
  EXPECT_TRUE(has_rule(r, "H001"));
  EXPECT_FALSE(r.clean());

  // Dynamic: run the same structure under the watchdog. The queue drains
  // with the source mid-protocol and nothing power-starved — the kernel
  // classifies exactly the deadlock the linter predicted.
  f.kernel.add_probe([&] {
    return src.mid_protocol() ? sim::ProbeState::kBusy
                              : sim::ProbeState::kIdle;
  });
  src.start(1);
  sim::Budget budget;
  budget.horizon = sim::ms(10);
  const sim::RunVerdict v = f.kernel.run_guarded(budget);
  EXPECT_EQ(v.status, sim::RunStatus::kDeadlocked);
  EXPECT_EQ(src.completed(), 0u);

  // And the repaired twin passes both analyses: add the sink, re-check.
  Fixture g;
  sim::Wire req2(g.kernel, "req", false), ack2(g.kernel, "ack", false);
  async::Channel ch2{&req2, &ack2};
  async::HandshakeSource src2(g.ctx, "src", ch2);
  async::HandshakeSink sink2(g.ctx, "sink", ch2, 2.0);
  netlist::Circuit ok(g.ctx, "capstone_ok");
  src2.register_in(ok);
  sink2.register_in(ok);
  EXPECT_TRUE(analyze(ok).clean());
  g.kernel.add_probe([&] {
    return src2.mid_protocol() ? sim::ProbeState::kBusy
                               : sim::ProbeState::kIdle;
  });
  src2.start(3);
  sim::Budget b2;
  b2.horizon = sim::ms(10);
  const sim::RunVerdict v2 = g.kernel.run_guarded(b2);
  EXPECT_EQ(v2.status, sim::RunStatus::kCompleted);
  EXPECT_EQ(src2.completed(), 3u);
}

}  // namespace
}  // namespace emc::lint
