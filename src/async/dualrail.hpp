// Dual-rail (1-of-2) data encoding.
//
// Each bit travels on two rails: (t,f) = (1,0) encodes 1, (0,1) encodes
// 0, (0,0) is the NULL spacer between code words, and (1,1) is illegal.
// Validity is observable per bit (t OR f), which is what makes genuine
// completion detection — and hence Design 1's tolerance to any Vdd —
// possible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gates/completion.hpp"
#include "sim/signal.hpp"

namespace emc::async {

enum class RailState : std::uint8_t { kNull, kValid0, kValid1, kIllegal };

inline RailState rail_state(bool t, bool f) {
  if (t && f) return RailState::kIllegal;
  if (t) return RailState::kValid1;
  if (f) return RailState::kValid0;
  return RailState::kNull;
}

/// A dual-rail word view over externally-owned wires.
class DualRailWord {
 public:
  explicit DualRailWord(std::vector<gates::DualRailWire> bits)
      : bits_(std::move(bits)) {}

  const gates::DualRailWire& bit(std::size_t i) const { return bits_[i]; }
  const std::vector<gates::DualRailWire>& bits() const { return bits_; }

  RailState bit_state(std::size_t i) const {
    return rail_state(bits_[i].t->read(), bits_[i].f->read());
  }

  /// Decoded value when all bits are valid; nullopt otherwise.
  std::optional<std::uint64_t> value() const;

 private:
  std::vector<gates::DualRailWire> bits_;
};

}  // namespace emc::async
