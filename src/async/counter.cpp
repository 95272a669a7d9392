#include "async/counter.hpp"

#include <cassert>

namespace emc::async {

// ---------------------------------------------------------------------------
// ToggleRippleCounter
// ---------------------------------------------------------------------------

ToggleRippleCounter::ToggleRippleCounter(gates::Context& ctx,
                                         std::string name, std::size_t stages,
                                         sim::Wire* external_input)
    : circuit_(ctx, std::move(name)) {
  assert(stages >= 1);
  sim::Wire* stage_in = external_input;
  if (external_input != nullptr) {
    circuit_.note_external_wire(external_input->name());
  } else {
    // Oscillator mode: osc = NAND(enable, osc). With enable high the gate
    // inverts its own output and free-runs at its (Vdd-dependent) delay;
    // with enable low it parks at 1.
    enable_ = &circuit_.wire("enable", false);
    sim::Wire& osc = circuit_.wire("osc", true);
    circuit_.comb("nand_osc", gates::Op::kNand,
                  std::vector<sim::Wire*>{enable_, &osc}, osc);
    circuit_.mark_env_driven(*enable_);
    circuit_.suppress("C001", circuit_.name() + ".nand_osc",
                      "relaxation oscillator: the NAND's self-loop IS the "
                      "clock source, gated by enable");
    stage_in = &osc;
  }
  for (std::size_t i = 0; i < stages; ++i) {
    sim::Wire& dot = circuit_.wire("dot" + std::to_string(i), false);
    sim::Wire& blank = circuit_.wire("blank" + std::to_string(i), false);
    auto& t = circuit_.emplace<gates::Toggle>(
        ctx, circuit_.name() + ".T" + std::to_string(i), *stage_in, dot,
        blank);
    circuit_.note_edge(stage_in->name(), t.name());
    circuit_.note_edge(t.name(), dot.name());
    circuit_.note_edge(t.name(), blank.name());
    toggles_.push_back(&t);
    dots_.push_back(&dot);
    blanks_.push_back(&blank);
    stage_in = &dot;  // the "dot" output carries the divided frequency on
  }
}

void ToggleRippleCounter::start() {
  if (enable_ != nullptr) enable_->set(true);
}

void ToggleRippleCounter::stop() {
  if (enable_ != nullptr) enable_->set(false);
}

std::uint64_t ToggleRippleCounter::decode() const {
  // Stage i has served k_i input transitions; its output parities give
  // parity(k_i) = dot_i XOR blank_i (both start at 0). The recurrence
  // k_i = 2*k_{i+1} - p_i yields k_0 = -sum(2^i p_i) mod 2^stages.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < toggles_.size(); ++i) {
    const bool p = dots_[i]->read() != blanks_[i]->read();
    if (p) acc += (std::uint64_t{1} << i);
  }
  const std::uint64_t mod = std::uint64_t{1} << toggles_.size();
  return (mod - (acc % mod)) % mod;
}

// ---------------------------------------------------------------------------
// DualRailCounter
// ---------------------------------------------------------------------------

DualRailCounter::DualRailCounter(gates::Context& ctx, std::string name,
                                 std::size_t bits)
    : circuit_(ctx, std::move(name)), width_(bits) {
  assert(bits >= 1 && bits <= 16);

  // run gate: the ring only oscillates while `run` is high.
  run_ = &circuit_.wire("run", false);
  en_ = &circuit_.wire("en", false);

  // State register outputs (binary view of the master latch).
  for (std::size_t i = 0; i < bits; ++i) {
    state_wires_.push_back(&circuit_.wire("s" + std::to_string(i), false));
  }

  // Data rails with their increment drivers:
  //   t_i = run AND en AND inc_i(state), f_i = run AND en AND !inc_i(state)
  std::vector<gates::DualRailWire> rail_bits;
  for (std::size_t i = 0; i < bits; ++i) {
    sim::Wire& t = circuit_.wire("t" + std::to_string(i), false);
    sim::Wire& f = circuit_.wire("f" + std::to_string(i), false);
    std::vector<sim::Wire*> ins{run_, en_};
    for (auto* s : state_wires_) ins.push_back(s);
    auto inc_bit = [i](const std::vector<bool>& v) {
      // v[0]=run, v[1]=en, v[2..] = state bits.
      if (!v[0] || !v[1]) return false;
      std::uint64_t s = 0;
      for (std::size_t b = 2; b < v.size(); ++b) {
        if (v[b]) s |= (std::uint64_t{1} << (b - 2));
      }
      return (((s + 1) >> i) & 1u) != 0;
    };
    auto inc_bit_n = [i](const std::vector<bool>& v) {
      if (!v[0] || !v[1]) return false;
      std::uint64_t s = 0;
      for (std::size_t b = 2; b < v.size(); ++b) {
        if (v[b]) s |= (std::uint64_t{1} << (b - 2));
      }
      return (((s + 1) >> i) & 1u) == 0;
    };
    // The increment function of bit i spans an i-deep carry chain; charge
    // delay accordingly (dual-rail AND-OR trees, ~1 stage per carry).
    const double depth = 2.0 + static_cast<double>(i);
    const std::string tname = circuit_.name() + ".dt" + std::to_string(i);
    const std::string fname = circuit_.name() + ".df" + std::to_string(i);
    for (const sim::Wire* in : ins) {
      circuit_.note_edge(in->name(), tname);
      circuit_.note_edge(in->name(), fname);
      // Static timing arcs matching the FunctionGate charge below
      // (depth stages x 2.5 cap factor, nominal threshold).
      circuit_.note_timing_arc(in->name(), tname, t.name(), depth * 2.5);
      circuit_.note_timing_arc(in->name(), fname, f.name(), depth * 2.5);
    }
    circuit_.note_edge(tname, t.name());
    circuit_.note_edge(fname, f.name());
    circuit_.emplace<gates::FunctionGate>(ctx, tname, inc_bit, ins, t, depth,
                                          2.5);
    circuit_.emplace<gates::FunctionGate>(ctx, fname, inc_bit_n,
                                          std::move(ins), f, depth, 2.5);
    rail_bits.push_back(gates::DualRailWire{&t, &f});
  }
  word_ = std::make_unique<DualRailWord>(rail_bits);

  // Genuine completion detection over the rails.
  cd_ = std::make_unique<gates::CompletionDetector>(
      ctx, circuit_.name() + ".cd", rail_bits);
  cd_->describe_into(circuit_);
  done_wire_ = &cd_->done();

  // The state-commit latch rank is behavioural (on_done_change), but its
  // connectivity is real: done clocks it, it drives the state wires.
  const std::string latch = circuit_.name() + ".latch";
  circuit_.note_element(latch, netlist::ElementKind::kEndpoint);
  circuit_.note_edge(done_wire_->name(), latch);
  for (const sim::Wire* s : state_wires_) {
    circuit_.note_edge(latch, s->name());
  }
  circuit_.mark_env_driven(*run_);

  // Close the ring: en = INV(done).
  circuit_.comb("inv_done", gates::Op::kInv,
                std::vector<sim::Wire*>{done_wire_}, *en_);

  latch_meter_ = ctx.meter.add(circuit_.name() + ".latch", 8.0 * bits);
  done_wire_->subscribe<&DualRailCounter::on_done_change>(this);
}

void DualRailCounter::start() {
  if (running_) return;
  running_ = true;
  run_->set(true);
  // Kick the ring: with done low, en must settle high to present the
  // first code word.
  en_->set(!done_wire_->read());
}

void DualRailCounter::on_done_change() {
  auto& ctx = circuit_.ctx();
  if (done_wire_->read()) {
    // All rails valid: check the code word.
    const auto v = word_->value();
    const std::uint64_t expect = (state_ + 1) & ((1u << width_) - 1u);
    if (!v.has_value() || *v != expect) {
      ++code_errors_;
    }
    ++count_;
    return;
  }
  // Rails are NULL: commit the increment to the master state. The rails'
  // drivers see en low, so flipping the state wires cannot glitch them.
  state_ = (state_ + 1) & ((std::uint64_t{1} << width_) - 1u);
  for (std::size_t i = 0; i < width_; ++i) {
    state_wires_[i]->set(((state_ >> i) & 1u) != 0);
  }
  // The latch rank costs energy like ~2 C-elements per bit.
  const double vdd = ctx.supply.voltage();
  const double cload =
      4.0 * ctx.model.tech().c_inv * static_cast<double>(width_);
  ctx.bill(latch_meter_, ctx.model.switching_charge(vdd, cload),
           ctx.model.switching_energy(vdd, cload));
  if (!running_) run_->set(false);
}

}  // namespace emc::async
