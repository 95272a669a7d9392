// Combinational gate library.
//
// Standard cells used by the self-timed circuits: inverters, NAND/NOR,
// AND/OR, XOR/XNOR and a generic truth-function gate for odd cases.
// Delay/energy factors are in reference-inverter units (a 2-input NAND
// is ~1.2 inverters of delay and ~1.5 of switched capacitance, etc.) —
// coarse but uniform, and everything downstream only depends on ratios.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gates/gate.hpp"

namespace emc::gates {

enum class Op {
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMaj3,  // majority-of-3 (carry logic)
};

/// Relative delay / capacitance factors per op (reference inverter = 1).
struct CellFactors {
  double delay;
  double cap;
  double leak_width;
};
CellFactors factors_for(Op op, std::size_t fanin);

class CombGate final : public Gate {
 public:
  CombGate(Context& ctx, std::string name, Op op,
           std::vector<sim::Wire*> inputs, sim::Wire& out,
           double vth_offset = 0.0);

 protected:
  bool evaluate(bool current) const override;

 private:
  Op op_;
  std::vector<sim::Wire*> inputs_;
};

/// Arbitrary single-output boolean function of its inputs; used for
/// decoder product terms and test fixtures. `fn` is tabulated over all
/// 2^n input combinations at construction and never called again, so
/// it must be pure; evaluation packs the inputs (input 0 the lowest
/// bit) and reads one bit of the table.
class FunctionGate final : public Gate {
 public:
  using Fn = std::function<bool(const std::vector<bool>&)>;

  /// Widest fan-in: the table holds 2^fan-in bits (8 KiB at 16).
  static constexpr std::size_t kMaxInputs = 16;

  /// Throws std::invalid_argument above kMaxInputs inputs.
  FunctionGate(Context& ctx, std::string name, const Fn& fn,
               std::vector<sim::Wire*> inputs, sim::Wire& out,
               double delay_stages = 1.5, double cap_factor = 2.0,
               double vth_offset = 0.0);

 protected:
  bool evaluate(bool current) const override;

 private:
  std::vector<sim::Wire*> inputs_;
  std::vector<std::uint64_t> table_;  // bit k: fn of the inputs packed as k
};

}  // namespace emc::gates
