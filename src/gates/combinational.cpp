#include "gates/combinational.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace emc::gates {

CellFactors factors_for(Op op, std::size_t fanin) {
  // Inverter-relative logical effort-style factors: series stacks slow a
  // gate roughly linearly in fanin; XOR costs ~two stages.
  const double n = static_cast<double>(fanin);
  switch (op) {
    case Op::kBuf:
      return {1.0, 1.0, 2.0};
    case Op::kInv:
      return {1.0, 1.0, 2.0};
    case Op::kNand:
    case Op::kNor:
      return {0.8 + 0.4 * n, 1.0 + 0.5 * n, 2.0 * n};
    case Op::kAnd:
    case Op::kOr:  // NAND/NOR + inverter
      return {1.8 + 0.4 * n, 2.0 + 0.5 * n, 2.0 * n + 2.0};
    case Op::kXor:
    case Op::kXnor:
      return {2.2, 3.0, 8.0};
    case Op::kMaj3:
      return {2.0, 2.5, 6.0};
  }
  return {1.0, 1.0, 2.0};
}

CombGate::CombGate(Context& ctx, std::string name, Op op,
                   std::vector<sim::Wire*> inputs, sim::Wire& out,
                   double vth_offset)
    : Gate(ctx, std::move(name), out, factors_for(op, inputs.size()).delay,
           factors_for(op, inputs.size()).cap, vth_offset,
           factors_for(op, inputs.size()).leak_width),
      op_(op),
      inputs_(std::move(inputs)) {
  assert(!inputs_.empty());
  assert(op_ != Op::kMaj3 || inputs_.size() == 3);
  for (auto* w : inputs_) listen(*w);
}

bool CombGate::evaluate(bool /*current*/) const {
  auto all = [&](bool v) {
    for (auto* w : inputs_)
      if (w->read() != v) return false;
    return true;
  };
  auto any = [&](bool v) {
    for (auto* w : inputs_)
      if (w->read() == v) return true;
    return false;
  };
  switch (op_) {
    case Op::kBuf:
      return inputs_[0]->read();
    case Op::kInv:
      return !inputs_[0]->read();
    case Op::kAnd:
      return all(true);
    case Op::kNand:
      return !all(true);
    case Op::kOr:
      return any(true);
    case Op::kNor:
      return !any(true);
    case Op::kXor:
    case Op::kXnor: {
      bool x = false;
      for (auto* w : inputs_) x ^= w->read();
      return op_ == Op::kXor ? x : !x;
    }
    case Op::kMaj3: {
      const int sum = int(inputs_[0]->read()) + int(inputs_[1]->read()) +
                      int(inputs_[2]->read());
      return sum >= 2;
    }
  }
  return false;
}

namespace {

/// `inputs`, checked before the Gate base registers anything: the table
/// has 2^inputs bits.
std::size_t tabulated_fanin(std::size_t inputs) {
  if (inputs > FunctionGate::kMaxInputs) {
    throw std::invalid_argument(
        "FunctionGate: " + std::to_string(inputs) + " inputs, at most " +
        std::to_string(FunctionGate::kMaxInputs) + " tabulate");
  }
  return inputs;
}

std::vector<std::uint64_t> tabulate(const FunctionGate::Fn& fn,
                                    std::size_t inputs) {
  const std::size_t combos = std::size_t{1} << inputs;
  std::vector<std::uint64_t> table((combos + 63) / 64, 0);
  std::vector<bool> vals(inputs);
  for (std::size_t k = 0; k < combos; ++k) {
    for (std::size_t b = 0; b < inputs; ++b) vals[b] = ((k >> b) & 1u) != 0;
    if (fn(vals)) table[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  return table;
}

}  // namespace

FunctionGate::FunctionGate(Context& ctx, std::string name, const Fn& fn,
                           std::vector<sim::Wire*> inputs, sim::Wire& out,
                           double delay_stages, double cap_factor,
                           double vth_offset)
    : Gate(ctx, std::move(name), out, delay_stages, cap_factor, vth_offset,
           2.0 * static_cast<double>(tabulated_fanin(inputs.size()))),
      inputs_(std::move(inputs)),
      table_(tabulate(fn, inputs_.size())) {
  for (auto* w : inputs_) listen(*w);
}

bool FunctionGate::evaluate(bool /*current*/) const {
  std::size_t k = 0;
  for (std::size_t b = 0; b < inputs_.size(); ++b) {
    k |= static_cast<std::size_t>(inputs_[b]->read()) << b;
  }
  return ((table_[k / 64] >> (k % 64)) & 1u) != 0;
}

}  // namespace emc::gates
