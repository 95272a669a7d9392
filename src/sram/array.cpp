#include "sram/array.hpp"

#include <cassert>

namespace emc::sram {

SramArray::SramArray(ArrayGeometry geometry) : data_(geometry.words, 0) {}

std::uint16_t SramArray::read_word(std::size_t addr) const {
  assert(addr < data_.size());
  ++reads_;
  return data_[addr];
}

void SramArray::write_word(std::size_t addr, std::uint16_t value) {
  assert(addr < data_.size());
  ++writes_;
  data_[addr] = value;
}

}  // namespace emc::sram
