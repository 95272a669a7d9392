#include "sched/petri.hpp"

#include <algorithm>
#include <cassert>

namespace emc::sched {

EnergyPetriNet::EnergyPetriNet(sim::Kernel& kernel) : kernel_(&kernel) {
  energy_place_ = add_place("ENERGY", 0);
}

EnergyPetriNet::PlaceId EnergyPetriNet::add_place(std::string name,
                                                  std::uint64_t initial) {
  places_.push_back(Place{std::move(name), initial});
  return places_.size() - 1;
}

EnergyPetriNet::TransitionId EnergyPetriNet::add_transition(
    std::string name, std::vector<PlaceId> inputs,
    std::vector<PlaceId> outputs, std::uint64_t energy_cost,
    sim::Time duration) {
  for ([[maybe_unused]] PlaceId p : inputs) assert(p < places_.size());
  for ([[maybe_unused]] PlaceId p : outputs) assert(p < places_.size());
  transitions_.push_back(Transition{std::move(name), std::move(inputs),
                                    std::move(outputs), energy_cost, duration});
  return transitions_.size() - 1;
}

void EnergyPetriNet::add_energy(std::uint64_t tokens) {
  places_[energy_place_].tokens += tokens;
}

bool EnergyPetriNet::enabled(TransitionId t) const {
  const Transition& tr = transitions_[t];
  if (places_[energy_place_].tokens < tr.energy_cost) return false;
  // Multiset semantics: a place appearing k times needs k tokens.
  for (PlaceId p : tr.inputs) {
    const auto need = static_cast<std::uint64_t>(
        std::count(tr.inputs.begin(), tr.inputs.end(), p));
    if (places_[p].tokens < need) return false;
  }
  return true;
}

std::vector<EnergyPetriNet::TransitionId>
EnergyPetriNet::enabled_transitions() const {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < transitions_.size(); ++t) {
    if (enabled(t)) out.push_back(t);
  }
  return out;
}

bool EnergyPetriNet::fire(TransitionId t) {
  if (!enabled(t)) return false;
  Transition& tr = transitions_[t];
  for (PlaceId p : tr.inputs) {
    --places_[p].tokens;
    ++consumed_;
  }
  places_[energy_place_].tokens -= tr.energy_cost;
  consumed_ += tr.energy_cost;
  energy_spent_ += tr.energy_cost;
  ++tr.in_flight;
  kernel_->schedule(tr.duration, [this, t] {
    Transition& fin = transitions_[t];
    for (PlaceId p : fin.outputs) {
      ++places_[p].tokens;
      ++produced_;
    }
    --fin.in_flight;
    ++fin.fires;
  });
  return true;
}

std::uint64_t EnergyPetriNet::run(sim::Time deadline, sim::Rng& rng) {
  std::uint64_t fired = 0;
  for (;;) {
    // Fire everything currently enabled, in randomized order so no
    // transition starves its conflicts.
    auto en = enabled_transitions();
    while (!en.empty()) {
      const std::size_t pick = rng.index(en.size());
      if (fire(en[pick])) ++fired;
      en = enabled_transitions();
    }
    // Advance to the next completion; stop at quiescence or deadline.
    // One event at the kTimeMax horizon: the clock lands on the event's
    // own time, never on a deadline.
    if (kernel_->idle() || kernel_->next_event_time() > deadline) break;
    kernel_->run_guarded({sim::kTimeMax, 1});
  }
  return fired;
}

}  // namespace emc::sched
