// The paper's two self-timed counters.
//
// ToggleRippleCounter (Fig. 9): a chain of TOGGLE elements fed by a ring
// oscillator. Each stage divides the transition rate by two; the
// flip-flop states encode how many transitions the chain has swallowed —
// decode() reconstructs that count exactly from the (dot, blank) parities.
// Powered from a sampling capacitor this *is* the charge-to-digital
// converter: it oscillates while charge lasts, and "there is a strong
// proportionality between the amount of charge taken from the capacitor
// and the number of transitions".
//
// DualRailCounter (Fig. 4): an N-bit (paper: 2-bit) sequential dual-rail
// counter closed into a ring by its own completion detector:
//
//     en = INV(done); rails_i = en AND inc_i(state); done = CD(rails)
//
// VALID and NULL phases alternate purely by causality — every phase
// advance waits for the completion detector, so any supply waveform
// (including 200 mV +/- 100 mV AC) only modulates the *rate*, never the
// correctness. State capture happens on done falling (rails are NULL,
// so the capture cannot glitch the datapath) — the master/slave
// separation of the silicon design expressed behaviourally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "async/dualrail.hpp"
#include "gates/combinational.hpp"
#include "gates/completion.hpp"
#include "gates/gate.hpp"
#include "gates/toggle.hpp"
#include "netlist/module.hpp"
#include "sim/signal.hpp"

namespace emc::async {

class ToggleRippleCounter {
 public:
  /// `stages` toggle flip-flops. If `external_input` is null the counter
  /// runs in oscillator mode (Fig. 9): a self-looped NAND gated by
  /// enable() feeds stage 0.
  ToggleRippleCounter(gates::Context& ctx, std::string name,
                      std::size_t stages,
                      sim::Wire* external_input = nullptr);

  /// Oscillator-mode control (no-ops when driven externally).
  void start();
  void stop();

  /// Input transitions served by stage 0, reconstructed *from the
  /// flip-flop states alone*, modulo 2^stages. This is "the code
  /// accumulated in the counter".
  std::uint64_t decode() const;

  /// Same, as full count from the stage-0 fire counter (ground truth for
  /// tests; equals decode() mod 2^stages).
  std::uint64_t transitions_served() const { return toggles_[0]->fires(); }

  gates::Toggle& stage(std::size_t i) { return *toggles_[i]; }

  /// Connectivity inventory (static lint and timing).
  const netlist::Circuit& circuit() const { return circuit_; }

 private:
  netlist::Circuit circuit_;
  sim::Wire* enable_ = nullptr;
  std::vector<gates::Toggle*> toggles_;
  std::vector<sim::Wire*> dots_;
  std::vector<sim::Wire*> blanks_;
};

class DualRailCounter {
 public:
  DualRailCounter(gates::Context& ctx, std::string name,
                  std::size_t bits = 2);

  /// Begin free-running (presents the first code word).
  void start();
  /// Finish the current cycle and stop (the ring parks in NULL).
  void stop() { running_ = false; }

  /// Completed increments (done rising edges with a verified code word).
  std::uint64_t count() const { return count_; }
  /// Current state (= count mod 2^bits once running).
  std::uint64_t state() const { return state_; }
  /// Code words observed at done↑ that did not equal state+1 — must stay
  /// zero for a speed-independent design under *any* supply.
  std::uint64_t code_errors() const { return code_errors_; }

  sim::Wire& done() { return *done_wire_; }
  DualRailWord& rails() { return *word_; }

  /// Connectivity inventory (static lint and timing), mutable so a
  /// figure hook can declare the operating range it sweeps before
  /// handing it to an analyzer.
  netlist::Circuit& circuit() { return circuit_; }

 private:
  void on_done_change();

  netlist::Circuit circuit_;
  std::size_t width_;
  std::uint64_t state_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t code_errors_ = 0;
  bool running_ = false;
  sim::Wire* en_ = nullptr;
  sim::Wire* run_ = nullptr;
  sim::Wire* done_wire_ = nullptr;
  std::vector<sim::Wire*> state_wires_;
  std::unique_ptr<DualRailWord> word_;
  std::unique_ptr<gates::CompletionDetector> cd_;
  gates::EnergyMeter::GateId latch_meter_ = 0;
};

}  // namespace emc::async
