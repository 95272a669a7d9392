#include "async/dualrail.hpp"

namespace emc::async {

std::optional<std::uint64_t> DualRailWord::value() const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    switch (bit_state(i)) {
      case RailState::kValid1:
        v |= (std::uint64_t{1} << i);
        break;
      case RailState::kValid0:
        break;
      default:
        return std::nullopt;
    }
  }
  return v;
}

}  // namespace emc::async
