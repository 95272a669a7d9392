// Muller-pipeline control ring.
//
// The canonical elastic pipeline: stage i's C-element fires when its
// predecessor offers a token and its successor has drained —
// c_i = C(c_{i-1}, NOT c_{i+1}), closed into a ring. Tokens circulate at
// whatever rate the supply permits; with K tokens in N stages the
// throughput-vs-Vdd and energy-per-token curves are the purest expression
// of the paper's power-proportionality argument (Fig. 1), and stalls and
// resumptions under a dying supply exercise the elasticity the paper
// attributes to self-timed logic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gates/celement.hpp"
#include "gates/combinational.hpp"
#include "gates/gate.hpp"
#include "netlist/module.hpp"
#include "sim/signal.hpp"

namespace emc::async {

class MullerRing {
 public:
  /// `stages` C-elements in a ring; `tokens` of them start full
  /// (tokens < stages/1 required for movement; classic capacity is one
  /// token per two stages).
  MullerRing(gates::Context& ctx, std::string name, std::size_t stages,
             std::size_t tokens);

  void start();

  /// Completed token passages through stage 0 (two transitions each).
  std::uint64_t ops() const { return stage_wires_[0]->transitions() / 2; }

  /// Connectivity inventory (static lint and timing).
  const netlist::Circuit& circuit() const { return circuit_; }

 private:
  netlist::Circuit circuit_;
  std::vector<sim::Wire*> stage_wires_;
  std::vector<gates::Gate*> celements_;
};

}  // namespace emc::async
