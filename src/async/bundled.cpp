#include "async/bundled.hpp"

#include <cassert>
#include <cmath>

#include "gates/delay_line.hpp"

namespace emc::async {

namespace {
// Depth (in gate stages) and switched-capacitance factor of the increment
// function of bit i — matched with DualRailCounter so the Fig. 2
// comparison is apples-to-apples.
double depth_of_bit(std::size_t i) { return 2.0 + static_cast<double>(i); }
constexpr double kDatapathCap = 2.0;
}  // namespace

BundledCounter::BundledCounter(gates::Context& ctx, std::string name,
                               BundledParams params)
    : circuit_(ctx, std::move(name)), params_(params) {
  assert(params_.bits >= 1 && params_.bits <= 16);

  go_ = &circuit_.wire("go", false);
  for (std::size_t i = 0; i < params_.bits; ++i) {
    state_wires_.push_back(&circuit_.wire("s" + std::to_string(i), false));
  }

  // Single-rail increment datapath: d_i = inc_i(state), built on slower
  // (stacked, higher-Vth) cells than the delay line's inverters.
  std::vector<gates::FunctionGate*> dp;
  for (std::size_t i = 0; i < params_.bits; ++i) {
    sim::Wire& d = circuit_.wire("d" + std::to_string(i), false);
    auto inc_bit = [i](const std::vector<bool>& v) {
      std::uint64_t s = 0;
      for (std::size_t b = 0; b < v.size(); ++b) {
        if (v[b]) s |= (std::uint64_t{1} << b);
      }
      return (((s + 1) >> i) & 1u) != 0;
    };
    // Named distinct from the output wire ("<circuit>.d<i>") — the
    // connectivity inventory is name-keyed, and a gate/wire collision
    // would read as a combinational self-loop.
    dp.push_back(&circuit_.function_gate(
        "inc" + std::to_string(i), inc_bit, state_wires_, d, depth_of_bit(i),
        kDatapathCap, params_.datapath_vth_offset));
    data_wires_.push_back(&d);
  }

  // Size the matched delay: margin * worst datapath delay at the
  // calibration voltage, expressed in inverter stages at that voltage.
  const double worst_dp_s =
      ctx.model.delay_seconds(params_.calibration_vdd,
                              kDatapathCap * ctx.model.tech().c_inv *
                                  depth_of_bit(params_.bits - 1),
                              params_.datapath_vth_offset);
  const double inv_s =
      ctx.model.inverter_delay_seconds(params_.calibration_vdd);
  const auto stages = static_cast<std::size_t>(
      std::ceil(params_.margin * worst_dp_s / inv_s));
  sim::Wire& line_out =
      gates::DelayLine(circuit_, "line", *go_, std::max<std::size_t>(stages, 2))
          .output();

  // The bundled-data contract the whole design rests on, stated for the
  // static margin analysis (sta rule T001): the line output must arrive
  // after every datapath output has settled, at every operating point.
  netlist::BundleInfo bundle;
  bundle.name = circuit_.name() + ".bundle";
  bundle.trigger = line_out.name();
  for (const sim::Wire* d : data_wires_) bundle.targets.push_back(d->name());
  bundle.min_ratio = 1.0;
  circuit_.note_bundle(std::move(bundle));

  // The capture latch is behavioural (on_line_output) but structurally it
  // is clocked by the delay-line output, samples the datapath, drives the
  // state register, and relaunches go — close the loop in the inventory.
  const std::string latch = circuit_.name() + ".latch";
  circuit_.note_element(latch, netlist::ElementKind::kEndpoint);
  circuit_.note_edge(line_out.name(), latch);
  for (const sim::Wire* d : data_wires_) circuit_.note_edge(d->name(), latch);
  for (const sim::Wire* s : state_wires_) circuit_.note_edge(latch, s->name());
  circuit_.note_edge(latch, go_->name());

  latch_meter_ = ctx.meter.add(circuit_.name() + ".latch",
                               6.0 * static_cast<double>(params_.bits));

  line_out.subscribe<&BundledCounter::on_line_output>(this);

  // Settle the datapath outputs to inc(0) before the first launch.
  for (auto* g : dp) g->touch();
}

void BundledCounter::start() {
  if (running_) return;
  running_ = true;
  launch();
}

void BundledCounter::launch() {
  line_phase_ = !go_->read();
  go_->set(line_phase_);
}

void BundledCounter::on_line_output() {
  // The wavefront of the current launch arrives as a transition towards
  // the launched polarity (the chain has even/odd parity; just track
  // edges — every output change corresponds to one completed launch).
  // Capture: read the datapath outputs into the state latch, settled or
  // not — that is the bundled-data gamble.
  std::uint64_t captured = 0;
  for (std::size_t i = 0; i < params_.bits; ++i) {
    if (data_wires_[i]->read()) captured |= (std::uint64_t{1} << i);
  }
  const std::uint64_t mask = (std::uint64_t{1} << params_.bits) - 1u;
  const std::uint64_t expect = (state_ + 1) & mask;
  if (captured != expect) ++errors_;
  ++count_;
  state_ = captured;
  auto& ctx = circuit_.ctx();
  for (std::size_t i = 0; i < params_.bits; ++i) {
    state_wires_[i]->set(((state_ >> i) & 1u) != 0);
  }
  const double vdd = ctx.supply.voltage();
  const double cload =
      3.0 * ctx.model.tech().c_inv * static_cast<double>(params_.bits);
  ctx.bill(latch_meter_, ctx.model.switching_charge(vdd, cload),
           ctx.model.switching_energy(vdd, cload));
  launch();
}

}  // namespace emc::async
