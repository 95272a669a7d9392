// Survivability — QoS and protocol completion under deterministic
// fault streams (brownout/dropout windows, harvester blackouts,
// handshake stalls).
//
// The paper's claim is that energy-modulated circuits degrade
// *gracefully*: starve the supply and a speed-independent design slows
// or pauses, it does not corrupt. This figure makes that quantitative.
// Every (supply, dropout rate, dropout duration) grid point is
// replicated over N trials (exp::Workbench::replicate); each trial
// builds ONE fault::FaultPlan from its trial seed and elaborates the
// same plan onto two independent circuits:
//   * a QoS circuit — the Fig. 9 toggle-ripple oscillator free-running
//     at near-threshold Vdd; QoS = stage-0 transitions served per
//     second of horizon,
//   * a protocol circuit — a 4-phase HandshakeSource/Sink pair asked
//     for a fixed batch of cycles; completion % plus the kernel
//     watchdog's structured RunVerdict (run_guarded classifies a
//     drained queue as completed / quiesced / deadlocked instead of
//     hanging).
// The dropout process also gates the harvester (blackout) and stalls
// the handshake sink at a quarter of the rate — one environment, three
// correlated fault processes, all drawn from counter-based streams.
//
// Fault-free rows share runs. At dropout rate 0 the plan elaborates no
// windows, so a supply's two rate-0 rows (drop 2 us and 10 us) of one
// trial are one simulation. The harvested rail re-keys its harvest
// stream by the trial seed: its baseline is one run per trial
// (exp::Workbench::per_trial). The battery and AC rails read no
// trial-keyed stream — a constant level and a fixed sine, and with no
// windows the trial seed reaches nothing else — so each has one
// baseline run for the whole figure. That invariance is checked on
// every run with more than one trial: the two baselines are simulated
// again at trial 1's seed, and any difference fails the run. A row
// served from a baseline carries that run's kernel stats, so the
// manifest counts one simulation per row as if each row had run it.
//
// Determinism contract: byte-identical CSVs at any EMC_SWEEP_THREADS —
// the FaultPlan schedule is pure in (trial_seed, stream) and the kernel
// dispatches same-time events in schedule order.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/sweep.hpp"
#include "async/counter.hpp"
#include "async/handshake.hpp"
#include "exp/workbench.hpp"
#include "fault/fault_plan.hpp"
#include "lint/session.hpp"
#include "netlist/module.hpp"
#include "repro/registry.hpp"
#include "repro/replicated.hpp"

namespace {

using namespace emc;

constexpr std::size_t kTrials = 12;
/// Fault processes are generated over this window; the QoS run stops
/// here, the protocol run gets twice this to finish recovered cycles.
constexpr sim::Time kHorizon = sim::us(100);
constexpr std::size_t kOscStages = 4;
constexpr std::uint64_t kHandshakes = 40;
/// Near-threshold operating point for the battery scenarios (vmin is
/// 0.14 V): low enough that a brownout residual is fatal, high enough
/// that the oscillator runs at a useful rate.
constexpr double kBatteryVdd = 0.35;

exp::SupplyConfig supply_for(const std::string& kind) {
  if (kind == "ac") {
    // The Fig. 4 source: 200 mV +/- 100 mV at 1 MHz — troughs already
    // dip below vmin, so dropouts ride on top of periodic starvation.
    return exp::SupplyConfig::ac(0.2, 0.1, 1e6).faultable();
  }
  if (kind == "harvested") {
    // Bursty vibration harvester into a 2 uF store pre-charged to the
    // battery operating point; wake threshold above vmin so recovery
    // resumes cleanly.
    return exp::SupplyConfig::harvested(
               exp::SupplyConfig::storage_cap(2e-6, kBatteryVdd)
                   .wake_threshold(0.16),
               supply::HarvesterProfile::vibration_200uw(), /*seed=*/11,
               sim::us(10))
        .faultable();
  }
  return exp::SupplyConfig::battery(kBatteryVdd).faultable();
}

/// The shared fault environment of one trial. All three specs are
/// always inserted (stream ordinals must not depend on the rates);
/// zero-rate specs elaborate to nothing.
fault::FaultPlan plan_for(std::uint64_t trial_seed, double dropout_hz,
                          double drop_s) {
  fault::FaultPlan plan(trial_seed, kHorizon);
  plan.dropouts(dropout_hz, drop_s)
      .harvester_blackouts(dropout_hz, drop_s)
      .handshake_stalls(dropout_hz / 4.0, 5.0 * drop_s);
  return plan;
}

struct TrialOutcome {
  double qos_kops_s = 0.0;
  const char* qos_verdict = "";
  double hs_done_pct = 0.0;
  const char* hs_verdict = "";
  bool survived = false;
  sim::Kernel::Stats stats;
};

TrialOutcome run_trial(const std::string& kind, double dropout_hz,
                       double drop_s, std::uint64_t trial_seed) {
  TrialOutcome out;
  const fault::FaultPlan plan = plan_for(trial_seed, dropout_hz, drop_s);

  // --- QoS circuit: free-running oscillator under the environment ----
  {
    auto ex = exp::ContextConfig::with(supply_for(kind))
                  .trial_seed(trial_seed)
                  .build();
    async::ToggleRippleCounter ctr(ex.ctx(), "osc", kOscStages);
    ctr.start();
    fault::FaultPlan::Targets t;
    t.supply = ex.fault_supply();
    t.harvester = ex.harvester();
    plan.elaborate(ex.kernel(), t);
    ex.kernel().add_probe([&] {
      return ex.ctx().drives.any_stalled() ? sim::ProbeState::kStalled
                                           : sim::ProbeState::kIdle;
    });
    sim::Budget b;
    b.horizon = kHorizon;
    const sim::RunVerdict v = ex.kernel().run_guarded(b);
    out.qos_kops_s = static_cast<double>(ctr.transitions_served()) /
                     sim::to_seconds(kHorizon) * 1e-3;
    out.qos_verdict = sim::to_string(v.status);
    out.stats += ex.kernel().stats();
    out.survived = ctr.transitions_served() > 0;
  }

  // --- protocol circuit: fixed handshake batch + watchdog verdict ----
  {
    auto ex = exp::ContextConfig::with(supply_for(kind))
                  .trial_seed(trial_seed)
                  .build();
    sim::Wire req(ex.kernel(), "req", false), ack(ex.kernel(), "ack", false);
    async::Channel ch{&req, &ack};
    async::HandshakeSource src(ex.ctx(), "src", ch);
    async::HandshakeSink sink(ex.ctx(), "sink", ch, 2.0);
    src.start(kHandshakes);
    fault::FaultPlan::Targets t;
    t.supply = ex.fault_supply();
    t.harvester = ex.harvester();
    t.sinks.push_back(&sink);
    plan.elaborate(ex.kernel(), t);
    ex.kernel().add_probe([&] {
      if (!src.mid_protocol()) return sim::ProbeState::kIdle;
      return ex.ctx().drives.any_stalled() || sink.stalled()
                 ? sim::ProbeState::kStalled
                 : sim::ProbeState::kBusy;
    });
    sim::Budget b;
    b.horizon = 2 * kHorizon;
    const sim::RunVerdict v = ex.kernel().run_guarded(b);
    out.hs_done_pct = 100.0 * static_cast<double>(src.completed()) /
                      static_cast<double>(kHandshakes);
    out.hs_verdict = sim::to_string(v.status);
    out.stats += ex.kernel().stats();
    out.survived = out.survived && src.completed() == kHandshakes &&
                   v.status != sim::RunStatus::kDeadlocked &&
                   v.status != sim::RunStatus::kBudgetExhausted;
  }
  return out;
}

/// Two runs that read the same: every reported cell and every kernel
/// count (wall time aside).
bool same_run(const TrialOutcome& a, const TrialOutcome& b) {
  return a.qos_kops_s == b.qos_kops_s &&
         std::strcmp(a.qos_verdict, b.qos_verdict) == 0 &&
         a.hs_done_pct == b.hs_done_pct &&
         std::strcmp(a.hs_verdict, b.hs_verdict) == 0 &&
         a.survived == b.survived &&
         a.stats.events_executed == b.stats.events_executed &&
         a.stats.events_scheduled == b.stats.events_scheduled &&
         a.stats.peak_queue_depth == b.stats.peak_queue_depth &&
         a.stats.slab_capacity == b.stats.slab_capacity;
}

/// Trials -> aggregate reduction (the figure's registered trial model).
analysis::Aggregate fig_survivability_aggregate() {
  return analysis::Aggregate({"supply", "dropout_hz", "drop_us"})
      .stats("qos_kops_s")
      .stats("hs_done_pct")
      .yield("survived");
}

}  // namespace

static int run_fig_survivability(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Survivability — QoS + protocol completion under fault streams");

  exp::Workbench wb("fig_survivability_trials");
  wb.threads(ctx.threads);
  wb.grid()
      .over("supply", std::vector<std::string>{"battery", "ac", "harvested"})
      .over("dropout_hz", {0.0, 2e4, 1e5})
      .over("drop_us", {2.0, 10.0});
  wb.replicate(ctx.trials_or(kTrials), ctx.seed);
  wb.columns({"supply", "dropout_hz", "drop_us", "trial", "qos_kops_s",
              "qos_verdict", "hs_done_pct", "hs_verdict", "survived"});

  // The fault-free baselines (see the header), run at dropout rate 0
  // (no window, so the drop duration is moot): harvested per trial;
  // battery and AC at trial 0's seed, and again at trial 1's to check
  // their trial invariance.
  const std::vector<TrialOutcome> harvested =
      wb.per_trial([](std::uint64_t seed) {
        return run_trial("harvested", 0.0, 0.0, seed);
      });
  const std::size_t checked_trials = wb.trials() > 1 ? 2 : 1;
  const char* const kFixedKinds[] = {"battery", "ac"};
  std::vector<TrialOutcome> fixed(2 * checked_trials);
  analysis::SweepRunner::for_indexed(
      fixed.size(), analysis::SweepRunner::resolve_threads(ctx.threads),
      [&](std::size_t i) {
        fixed[i] =
            run_trial(kFixedKinds[i % 2], 0.0, 0.0, wb.trial_seed(i / 2));
      });
  for (std::size_t i = 2; i < fixed.size(); ++i) {
    if (!same_run(fixed[i], fixed[i % 2])) {
      std::fprintf(stderr,
                   "fig_survivability: the fault-free %s run differs between "
                   "trials 0 and 1; its rail is not trial-invariant\n",
                   kFixedKinds[i % 2]);
      return 1;
    }
  }

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const std::string kind = p.get<std::string>("supply");
    const double dropout_hz = p.get<double>("dropout_hz");
    const double drop_us = p.get<double>("drop_us");
    const int trial = p.get<int>("trial");
    TrialOutcome o;
    if (dropout_hz != 0.0) {
      o = run_trial(kind, dropout_hz, drop_us * 1e-6,
                    p.get<std::uint64_t>("trial_seed"));
    } else if (kind == "harvested") {
      o = harvested[static_cast<std::size_t>(trial)];
    } else {
      o = fixed[kind == "battery" ? 0 : 1];
    }
    rec.row()
        .set("supply", kind)
        .set("dropout_hz", dropout_hz, 0)
        .set("drop_us", drop_us, 0)
        .set("trial", trial)
        .set("qos_kops_s", o.qos_kops_s, 4)
        .set("qos_verdict", o.qos_verdict)
        .set("hs_done_pct", o.hs_done_pct, 2)
        .set("hs_verdict", o.hs_verdict)
        .set("survived", o.survived ? 1 : 0);
    rec.add_stats(o.stats);
  };

  if (repro::run_replicated(ctx, "fig_survivability", wb, body) != 0) return 1;

  std::printf(
      "\nReading: dropouts cost *rate*, not correctness — QoS scales with\n"
      "delivered energy while the handshake batch finishes whenever the\n"
      "environment relents (verdicts stay completed/quiesced, never\n"
      "deadlocked: stalls here always recover). Aggregates written to\n"
      "fig_survivability.csv (raw trials: fig_survivability_trials.csv).\n");
  return 0;
}

static void lint_fig_survivability(emc::lint::Session& s) {
  // QoS circuit.
  emc::async::ToggleRippleCounter ctr(s.ctx(), "osc", kOscStages);
  s.check(ctr.circuit());
  // Protocol circuit: the closed 4-phase source/sink pair. With both
  // ends registered the handshake loop is marked, so H001 and D001 must
  // prove it live (the deliberately-broken variant lives in lint_test).
  emc::sim::Wire req(s.kernel(), "req", false);
  emc::sim::Wire ack(s.kernel(), "ack", false);
  emc::async::Channel ch{&req, &ack};
  emc::async::HandshakeSource src(s.ctx(), "src", ch);
  emc::async::HandshakeSink sink(s.ctx(), "sink", ch, 2.0);
  emc::netlist::Circuit proto(s.ctx(), "proto");
  src.register_in(proto);
  sink.register_in(proto);
  s.check(proto);
}

REPRO_FIGURE(fig_survivability)
    .title("Survivability — QoS + completion under brownout/fault streams")
    .ref_csv("fig_survivability.csv")
    .ref_csv("fig_survivability_trials.csv")
    .shard_model("fig_survivability_trials.csv", "fig_survivability.csv",
                 fig_survivability_aggregate)
    .seed(4242)
    .lint(lint_fig_survivability)
    .run(run_fig_survivability);
