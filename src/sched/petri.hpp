// Petri nets with energy tokens ([15]; the paper's conclusion points to
// "Petri net based models with energy tokens" as the modelling substrate
// for energy-modulated computing).
//
// A timed Petri net in which every transition, besides its ordinary
// input/output places, carries an energy price paid from a distinguished
// energy place. The energy place is replenished by the environment
// (harvester process), so the net's *behaviour* — which transitions can
// fire, and when — is literally modulated by the energy flow. Firing
// takes time (scaled by a global speed factor standing in for Vdd).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/random.hpp"

namespace emc::sched {

class EnergyPetriNet {
 public:
  using PlaceId = std::size_t;
  using TransitionId = std::size_t;

  explicit EnergyPetriNet(sim::Kernel& kernel);

  PlaceId add_place(std::string name, std::uint64_t initial_tokens = 0);
  /// The net's single energy place (created automatically).
  PlaceId energy_place() const { return energy_place_; }

  TransitionId add_transition(std::string name,
                              std::vector<PlaceId> inputs,
                              std::vector<PlaceId> outputs,
                              std::uint64_t energy_cost = 0,
                              sim::Time duration = sim::us(1));

  std::uint64_t marking(PlaceId p) const { return places_[p].tokens; }
  void add_energy(std::uint64_t tokens);

  /// A transition is enabled when every input place is marked and the
  /// energy place holds its cost.
  bool enabled(TransitionId t) const;
  std::vector<TransitionId> enabled_transitions() const;

  /// Fire a specific enabled transition: consumes inputs + energy now,
  /// produces outputs after the duration. Returns false if not enabled.
  bool fire(TransitionId t);

  /// Run a maximal-step simulation until quiescence or `deadline`:
  /// repeatedly fire every enabled transition (random order via rng for
  /// fairness). Returns fired-transition count.
  std::uint64_t run(sim::Time deadline, sim::Rng& rng);

  std::uint64_t fires(TransitionId t) const { return transitions_[t].fires; }
  std::uint64_t energy_spent() const { return energy_spent_; }
  const std::string& place_name(PlaceId p) const { return places_[p].name; }
  const std::string& transition_name(TransitionId t) const {
    return transitions_[t].name;
  }
  std::size_t place_count() const { return places_.size(); }
  std::size_t transition_count() const { return transitions_.size(); }

  /// Structural accessors for static analysis (lint rule D001 walks the
  /// place/transition bipartite graph looking for token-free cycles).
  const std::vector<PlaceId>& transition_inputs(TransitionId t) const {
    return transitions_[t].inputs;
  }
  const std::vector<PlaceId>& transition_outputs(TransitionId t) const {
    return transitions_[t].outputs;
  }

  /// Structural invariant for tests: tokens are conserved per firing
  /// (inputs+cost consumed, outputs produced) — verified bookkeeping.
  std::uint64_t tokens_consumed() const { return consumed_; }
  std::uint64_t tokens_produced() const { return produced_; }

 private:
  struct Place {
    std::string name;
    std::uint64_t tokens;
  };
  struct Transition {
    std::string name;
    std::vector<PlaceId> inputs;
    std::vector<PlaceId> outputs;
    std::uint64_t energy_cost;
    sim::Time duration;
    std::uint64_t fires = 0;
    std::uint64_t in_flight = 0;
  };

  sim::Kernel* kernel_;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  PlaceId energy_place_;
  std::uint64_t energy_spent_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t produced_ = 0;
};

}  // namespace emc::sched
