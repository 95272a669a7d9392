#include "async/pipeline.hpp"

#include <cassert>

namespace emc::async {

MullerRing::MullerRing(gates::Context& ctx, std::string name,
                       std::size_t stages, std::size_t tokens)
    : circuit_(ctx, std::move(name)) {
  assert(stages >= 3);
  assert(tokens >= 1 && tokens < stages);

  // Token pattern: a stage holds a token when its wire differs from its
  // successor's. Initialize the first `tokens` stages high.
  for (std::size_t i = 0; i < stages; ++i) {
    stage_wires_.push_back(&circuit_.wire("c" + std::to_string(i),
                                          i < tokens));
  }
  for (std::size_t i = 0; i < stages; ++i) {
    sim::Wire& prev = *stage_wires_[(i + stages - 1) % stages];
    sim::Wire& next = *stage_wires_[(i + 1) % stages];
    sim::Wire& nnext = circuit_.wire("nn" + std::to_string(i),
                                     !next.read());
    circuit_.comb("invn" + std::to_string(i), gates::Op::kInv,
                  std::vector<sim::Wire*>{&next}, nnext);
    // The ring closes on itself, so the sta pass excludes these
    // C-elements' arcs from longest-path propagation as one cyclic SCC —
    // recorded for completeness and fork analysis, not paths.
    celements_.push_back(&circuit_.celement(
        "ce" + std::to_string(i), std::vector<sim::Wire*>{&prev, &nnext},
        *stage_wires_[i]));
  }
}

void MullerRing::start() {
  // Nudge every element to evaluate its initial inputs; the ring then
  // free-runs on its own causality.
  for (auto* c : celements_) c->touch();
}

}  // namespace emc::async
