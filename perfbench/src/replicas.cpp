#include "replicas.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/aggregate.hpp"
#include "analysis/csv.hpp"
#include "analysis/sweep.hpp"
#include "async/counter.hpp"
#include "async/handshake.hpp"
#include "device/delay_model.hpp"
#include "device/variation.hpp"
#include "exp/workbench.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faultable_supply.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/sha256.hpp"
#include "sram/cell.hpp"
#include "sta/session.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace emc;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

const repro::Figure& registered(const std::string& name) {
  const repro::Figure* f = repro::Registry::instance().find(name);
  if (f == nullptr) throw std::runtime_error("figure not registered: " + name);
  return *f;
}

void add_kernel_stats(const std::string& figure, const sim::Kernel::Stats& s,
                      TracedResult& out) {
  out.metrics["sim.events_executed"] += static_cast<double>(s.events_executed);
  out.metrics["sim.events_scheduled"] +=
      static_cast<double>(s.events_scheduled);
  double& peak = out.metrics["sim.peak_queue_depth"];
  peak = std::max(peak, static_cast<double>(s.peak_queue_depth));
  out.events[figure] = s.events_executed;
}

/// Read and hash `files` as the driver's artifact inventory does; returns
/// their bytes (empty for a file that was not produced).
std::vector<std::string> hash_artifacts(const std::vector<std::string>& files,
                                        TracedResult& out) {
  std::vector<std::string> bytes(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    ++out.attempted;
    const auto t0 = Clock::now();
    if (!read_file(files[i], &bytes[i])) {
      out.failures.push_back("artifact not produced: " + files[i]);
      continue;
    }
    out.artifacts[files[i]] = repro::sha256_hex(bytes[i]);
    out.metrics["repro.hash_s"] += seconds_since(t0);
    out.metrics["repro.artifact_bytes"] += static_cast<double>(bytes[i].size());
  }
  return bytes;
}

void add_slot_totals(TracedResult& out) {
  const auto totals = Tracer::totals();
  for (std::size_t i = 0; i < kSlotCount; ++i) {
    out.metrics[kSlotNames[i]] += totals[i];
  }
}

/// The streaming tail both replicated figures share: rows flow on the
/// calling thread into the trial CSV and the figure's own registered
/// Aggregate spec, then the aggregate CSV is written and every artifact
/// hashed.
void stream_figure(const repro::Figure& fig, exp::Workbench& wb,
                   const exp::Workbench::Body& body, TracedResult& out) {
  ++out.attempted;
  double csv_s = 0.0;
  double consume_s = 0.0;
  analysis::CsvStream trials_out(fig.shard.trials_csv, wb.schema());
  analysis::Aggregate::Sink sink = fig.shard.aggregate().sink(wb.schema());
  const auto t0 = Clock::now();
  const analysis::SweepReport& report = wb.run_streaming(
      [&](std::size_t, const std::vector<std::string>& cells) {
        const auto a = Clock::now();
        trials_out.row(cells);
        const auto b = Clock::now();
        sink.consume(cells);
        csv_s += std::chrono::duration<double>(b - a).count();
        consume_s += seconds_since(b);
      },
      body);
  const double stream_s = seconds_since(t0);
  const auto c0 = Clock::now();
  if (!trials_out.close()) out.failures.push_back("trial CSV write failed");
  csv_s += seconds_since(c0);

  const auto f0 = Clock::now();
  const analysis::Table agg = sink.finish();
  out.metrics["analysis.agg_finish_s"] = seconds_since(f0);
  agg.print();
  if (!agg.write_csv(fig.shard.aggregate_csv)) {
    out.failures.push_back("aggregate CSV write failed");
  }

  out.metrics["analysis.csv_row_s"] = csv_s;
  out.metrics["analysis.agg_consume_s"] = consume_s;
  out.metrics["analysis.sink_wait_s"] = stream_s - csv_s - consume_s;
  out.metrics["analysis.rows"] = static_cast<double>(sink.rows());
  add_kernel_stats(fig.name, report.kernel_stats, out);
  hash_artifacts(fig.artifacts, out);
  add_slot_totals(out);
}

// --- fig_mc_yield (bench/fig_mc_yield.cpp) --------------------------------

constexpr std::size_t kLogicStages = 16;
constexpr std::size_t kSramCells = 64;
constexpr double kLogicMargin = 1.25;
constexpr double kVthSigma = 0.030;
constexpr double kStrengthSigma = 0.05;
constexpr std::uint64_t kLogicBaseId = 0;
constexpr std::uint64_t kSramBaseId = 1000;

// --- fig_survivability (bench/fig_survivability.cpp) ----------------------

constexpr sim::Time kHorizon = sim::us(100);
constexpr std::size_t kOscStages = 4;
constexpr std::uint64_t kHandshakes = 40;
constexpr double kBatteryVdd = 0.35;

exp::SupplyConfig supply_for(const std::string& kind) {
  if (kind == "ac") return exp::SupplyConfig::ac(0.2, 0.1, 1e6).faultable();
  if (kind == "harvested") {
    return exp::SupplyConfig::harvested(
               exp::SupplyConfig::storage_cap(2e-6, kBatteryVdd)
                   .wake_threshold(0.16),
               supply::HarvesterProfile::vibration_200uw(), /*seed=*/11,
               sim::us(10))
        .faultable();
  }
  return exp::SupplyConfig::battery(kBatteryVdd).faultable();
}

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

/// The protocol circuit, members in the figure's declaration order so
/// construction and destruction order match it.
struct Protocol {
  explicit Protocol(exp::Experiment& ex)
      : req(ex.kernel(), "req", false),
        ack(ex.kernel(), "ack", false),
        ch{&req, &ack},
        src(ex.ctx(), "src", ch),
        sink(ex.ctx(), "sink", ch, 2.0) {}
  sim::Wire req;
  sim::Wire ack;
  async::Channel ch;
  async::HandshakeSource src;
  async::HandshakeSink sink;
};

void build(std::optional<exp::Experiment>& ex, const std::string& kind,
           const exp::ParamSet& p) {
  Span span(kExpBuild);
  ex.emplace(exp::ContextConfig::with(supply_for(kind)).trial(p).build());
  Tracer::add(kExpBuildCalls, 1.0);
}

sim::RunVerdict run(exp::Experiment& ex, sim::Time horizon) {
  Span span(kSimRun);
  sim::Budget b;
  b.horizon = horizon;
  return ex.kernel().run_guarded(b);
}

/// Simulated statistics of one finished circuit run.
void record_physics(exp::Experiment& ex) {
  const supply::Supply& rail = ex.supply();
  Tracer::add(kSupplyDrawCount, static_cast<double>(rail.draw_count()));
  Tracer::add(kSupplyRejectedDraws, static_cast<double>(rail.rejected_draws()));
  Tracer::add(kSupplyEnergyDrawn, rail.total_energy_drawn());
  if (const gates::EnergyMeter* m = ex.meter()) {
    Tracer::add(kGatesTransitions, static_cast<double>(m->total_transitions()));
    Tracer::add(kGatesMeterEnergy, m->total_energy());
  }
  Tracer::add(kGatesStallEntries,
              static_cast<double>(ex.ctx().drives.stall_entries()));
  if (const fault::FaultableSupply* f = ex.fault_supply()) {
    Tracer::add(kFaultFaultsSeen, static_cast<double>(f->faults_seen()));
  }
}

TrialOutcome run_trial(const std::string& kind, double dropout_hz,
                       double drop_s, const exp::ParamSet& p) {
  TrialOutcome out;
  const fault::FaultPlan plan =
      plan_for(p.get<std::uint64_t>("trial_seed"), dropout_hz, drop_s);

  {
    std::optional<exp::Experiment> ex;
    std::optional<async::ToggleRippleCounter> ctr;
    build(ex, kind, p);
    {
      Span span(kAsyncConstruct);
      ctr.emplace(ex->ctx(), "osc", kOscStages);
      ctr->start();
    }
    fault::FaultPlan::Targets t;
    t.supply = ex->fault_supply();
    t.harvester = ex->harvester();
    {
      Span span(kFaultElaborate);
      plan.elaborate(ex->kernel(), t);
    }
    ex->kernel().add_probe([&] {
      return ex->ctx().drives.any_stalled() ? sim::ProbeState::kStalled
                                            : sim::ProbeState::kIdle;
    });
    const sim::RunVerdict v = run(*ex, kHorizon);
    out.qos_kops_s = static_cast<double>(ctr->transitions_served()) /
                     sim::to_seconds(kHorizon) * 1e-3;
    out.qos_verdict = sim::to_string(v.status);
    out.stats += ex->kernel().stats();
    out.survived = ctr->transitions_served() > 0;
    record_physics(*ex);
    Span span(kExpTeardown);
    ctr.reset();
    ex.reset();
  }

  {
    std::optional<exp::Experiment> ex;
    std::optional<Protocol> proto;
    build(ex, kind, p);
    {
      Span span(kAsyncConstruct);
      proto.emplace(*ex);
      proto->src.start(kHandshakes);
    }
    fault::FaultPlan::Targets t;
    t.supply = ex->fault_supply();
    t.harvester = ex->harvester();
    t.sinks.push_back(&proto->sink);
    {
      Span span(kFaultElaborate);
      plan.elaborate(ex->kernel(), t);
    }
    ex->kernel().add_probe([&] {
      if (!proto->src.mid_protocol()) return sim::ProbeState::kIdle;
      return ex->ctx().drives.any_stalled() || proto->sink.stalled()
                 ? sim::ProbeState::kStalled
                 : sim::ProbeState::kBusy;
    });
    const sim::RunVerdict v = run(*ex, 2 * kHorizon);
    out.hs_done_pct = 100.0 * static_cast<double>(proto->src.completed()) /
                      static_cast<double>(kHandshakes);
    out.hs_verdict = sim::to_string(v.status);
    out.stats += ex->kernel().stats();
    out.survived = out.survived && proto->src.completed() == kHandshakes &&
                   v.status != sim::RunStatus::kDeadlocked &&
                   v.status != sim::RunStatus::kBudgetExhausted;
    record_physics(*ex);
    Span span(kExpTeardown);
    proto.reset();
    ex.reset();
  }
  return out;
}

}  // namespace

TracedResult trace_mc_yield(std::size_t trials, unsigned threads) {
  const repro::Figure& fig = registered("fig_mc_yield");
  analysis::print_banner(
      "Monte-Carlo yield — SRAM + logic survival vs Vdd under variation");

  exp::Workbench wb("fig_mc_yield_trials");
  wb.threads(threads);
  wb.grid().over("vdd", analysis::vdd_grid());
  wb.replicate(trials, fig.default_seed);
  wb.columns({"vdd_V", "trial", "path_ratio", "worst_vth_mV", "sram_ok",
              "logic_ok", "chip_ok"});

  const device::Variation variation =
      device::Variation::local(kVthSigma, kStrengthSigma);

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    Span body_span(kExpBody);
    const double v = p.get<double>("vdd");
    const device::VariationSampler sampler(variation,
                                           p.get<std::uint64_t>("trial_seed"));

    device::DelayModel model{device::Tech::umc90()};
    sram::CellModel cell(model, sram::CellParams{});

    double nominal_path = 0.0;
    {
      Span span(kDeviceDelay);
      nominal_path =
          static_cast<double>(kLogicStages) * model.inverter_delay_seconds(v);
    }
    double sampled_path = 0.0;
    for (std::size_t i = 0; i < kLogicStages; ++i) {
      device::DeviceSample d;
      {
        Span span(kDeviceSample);
        d = sampler.sample(kLogicBaseId + i);
      }
      Span span(kDeviceDelay);
      sampled_path += model.delay_seconds(v, model.tech().c_inv, d);
    }
    Tracer::add(kDeviceSampleCalls, static_cast<double>(kLogicStages));
    const double path_ratio = sampled_path / nominal_path;
    const bool logic_ok = model.operational(v) && path_ratio <= kLogicMargin;

    double worst_vth = 0.0;
    {
      Span span(kDeviceWorstVth);
      worst_vth = sampler.worst_vth(kSramBaseId, kSramCells);
    }
    bool sram_ok = false;
    {
      Span span(kSramCell);
      sram_ok = cell.sensable(v, kSramCells, worst_vth) && cell.write_ok(v) &&
                model.operational(v);
    }

    Span span(kExpRow);
    rec.row()
        .set("vdd_V", v)
        .set("trial", p.get<int>("trial"))
        .set("path_ratio", path_ratio, 4)
        .set("worst_vth_mV", worst_vth * 1e3, 4)
        .set("sram_ok", sram_ok ? 1 : 0)
        .set("logic_ok", logic_ok ? 1 : 0)
        .set("chip_ok", (sram_ok && logic_ok) ? 1 : 0);
  };

  TracedResult out;
  stream_figure(fig, wb, body, out);
  return out;
}

TracedResult trace_survivability(std::size_t trials, unsigned threads) {
  const repro::Figure& fig = registered("fig_survivability");
  analysis::print_banner(
      "Survivability — QoS + protocol completion under fault streams");

  exp::Workbench wb("fig_survivability_trials");
  wb.threads(threads);
  wb.grid()
      .over("supply", std::vector<std::string>{"battery", "ac", "harvested"})
      .over("dropout_hz", {0.0, 2e4, 1e5})
      .over("drop_us", {2.0, 10.0});
  wb.replicate(trials, fig.default_seed);
  wb.columns({"supply", "dropout_hz", "drop_us", "trial", "qos_kops_s",
              "qos_verdict", "hs_done_pct", "hs_verdict", "survived"});

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    Span body_span(kExpBody);
    const std::string kind = p.get<std::string>("supply");
    const double dropout_hz = p.get<double>("dropout_hz");
    const double drop_us = p.get<double>("drop_us");
    const TrialOutcome o = run_trial(kind, dropout_hz, drop_us * 1e-6, p);
    Span span(kExpRow);
    rec.row()
        .set("supply", kind)
        .set("dropout_hz", dropout_hz, 0)
        .set("drop_us", drop_us, 0)
        .set("trial", p.get<int>("trial"))
        .set("qos_kops_s", o.qos_kops_s, 4)
        .set("qos_verdict", o.qos_verdict)
        .set("hs_done_pct", o.hs_done_pct, 2)
        .set("hs_verdict", o.hs_verdict)
        .set("survived", o.survived ? 1 : 0);
    rec.add_stats(o.stats);
  };

  TracedResult out;
  stream_figure(fig, wb, body, out);
  return out;
}

TracedResult trace_repro_suite(const std::vector<std::string>& figures,
                               const std::string& refs_dir) {
  TracedResult out;
  double lint_s = 0.0;
  double sta_s = 0.0;
  double check_s = 0.0;
  for (const std::string& name : figures) {
    try {
      const repro::Figure& fig = registered(name);
      if (fig.lint == nullptr) {
        throw std::runtime_error("registers no lint model");
      }

      ++out.attempted;
      auto t0 = Clock::now();
      {
        lint::Session session;
        fig.lint(session);
        if (!session.clean()) out.failures.push_back(name + ": lint findings");
      }
      lint_s += seconds_since(t0);

      ++out.attempted;
      t0 = Clock::now();
      {
        sta::Session session;
        fig.lint(session);
        if (!session.clean() || session.vacuous()) {
          out.failures.push_back(name + ": sta findings");
        }
      }
      sta_s += seconds_since(t0);

      ++out.attempted;
      repro::RunContext ctx;
      ctx.seed = fig.default_seed;
      t0 = Clock::now();
      const int rc = fig.run(ctx);
      out.metrics["fig." + name + ".run_s"] = seconds_since(t0);
      if (rc != 0) out.failures.push_back(name + ": run() returned nonzero");
      add_kernel_stats(name, ctx.stats(), out);

      const std::vector<std::string> bytes = hash_artifacts(fig.artifacts, out);
      t0 = Clock::now();
      for (const std::string& ref : fig.refs) {
        ++out.attempted;
        std::string ref_bytes;
        if (!read_file(refs_dir + "/" + ref, &ref_bytes)) {
          out.failures.push_back(name + ": ref missing: " + ref);
          continue;
        }
        const auto it =
            std::find(fig.artifacts.begin(), fig.artifacts.end(), ref);
        const std::size_t i =
            static_cast<std::size_t>(it - fig.artifacts.begin());
        if (i >= bytes.size() || bytes[i] != ref_bytes) {
          out.failures.push_back(name + ": ref mismatch: " + ref);
        }
      }
      check_s += seconds_since(t0);
    } catch (const std::exception& e) {
      ++out.attempted;
      out.failures.push_back(name + ": " + e.what());
    }
  }
  out.metrics["lint.check_s"] = lint_s;
  out.metrics["sta.analyze_s"] = sta_s;
  out.metrics["repro.check_s"] = check_s;
  return out;
}

}  // namespace perfbench
