// SRAM data array: geometry and contents.
//
// The paper's instance is 1 kbit organized 64x16 (64 words of 16 bits) in
// UMC 90 nm. The array holds the data plane; timing and energy live in
// the controllers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>


namespace emc::sram {

struct ArrayGeometry {
  std::size_t words = 64;
  std::size_t bits = 16;
};

class SramArray {
 public:
  explicit SramArray(ArrayGeometry geometry);

  std::uint16_t read_word(std::size_t addr) const;
  void write_word(std::size_t addr, std::uint16_t value);

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  std::vector<std::uint16_t> data_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace emc::sram
