// Speed-independent SRAM with genuine completion detection (Fig. 6, [7]).
//
// Control flow per operation (all phase advances are completion events,
// never timeouts):
//
//   READ : req+ -> decode -> precharge done -> WL+ -> bit-line develops
//          (completion detector sees the swing) -> data latched -> WL-
//          -> ack+ ... req- -> ack-
//   WRITE: req+ -> decode -> precharge done -> WL+ -> *read first* (the
//          paper's trick: completion of a write is undetectable directly,
//          so read the old value, then drive the new one and wait until
//          the bit-lines *equal* the written word) -> WL- -> ack+ ...
//
// Every phase is executed as a SteppedAccess, so a supply collapse in
// the middle of any phase parks the operation and a recovery resumes it:
// this is what Fig. 7 shows — the same write takes microseconds at low
// Vdd and nanoseconds at high Vdd, but always finishes and never
// corrupts data.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "gates/gate.hpp"
#include "netlist/module.hpp"
#include "sim/signal.hpp"
#include "sram/array.hpp"
#include "sram/bitline.hpp"
#include "sram/energy.hpp"

namespace emc::sram {

struct SiSramParams {
  ArrayGeometry geometry{64, 16};
  CellParams cell{};
  BitlineParams bitline{};
  SramPhaseTimings timings{};
  SramEnergyAnchors anchors{};
};

struct OpResult {
  bool ok = true;
  bool write_margin_failure = false;
  double latency_s = 0.0;
  double energy_j = 0.0;   ///< dynamic energy billed to this op
  bool stalled = false;    ///< op straddled a brown-out
  sim::Time started = 0;
  sim::Time finished = 0;
};

class SiSram {
 public:
  using ReadCallback = std::function<void(std::uint16_t, const OpResult&)>;
  using WriteCallback = std::function<void(const OpResult&)>;

  SiSram(gates::Context& ctx, std::string name, SiSramParams params);

  const SramEnergyModel& energy_model() const { return *energy_; }

  /// Queue an operation; callbacks fire at ack time. Operations are
  /// served strictly in order (single port, like the silicon).
  void read(std::size_t addr, ReadCallback cb);
  void write(std::size_t addr, std::uint16_t value, WriteCallback cb);

  bool busy() const { return current_.has_value(); }

  std::uint64_t reads_completed() const { return reads_done_; }
  std::uint64_t writes_completed() const { return writes_done_; }
  std::uint64_t write_margin_failures() const { return write_failures_; }

  // Observation wires for VCD traces (Figs. 6/7).
  sim::Wire& w_req() { return *req_; }
  sim::Wire& w_ack() { return *ack_; }
  sim::Wire& w_pch() { return *pch_; }
  sim::Wire& w_wl() { return *wl_; }
  sim::Wire& w_we() { return *we_; }
  sim::Wire& w_done() { return *done_; }

  /// Connectivity inventory (static lint and timing).
  const netlist::Circuit& circuit() const { return circuit_; }

 private:
  struct Op {
    bool is_write;
    std::size_t addr;
    std::uint16_t value;
    ReadCallback read_cb;
    WriteCallback write_cb;
    OpResult result;
    double dyn_budget_j = 0.0;  ///< E_dyn0-share still to bill
  };

  void pump();
  void phase_logic(double stages, std::function<void()> next);
  void phase_bitline(bool is_write_drive, std::function<void()> next);
  void phase_precharge(std::function<void()> next);
  void bill(double fraction);
  void finish();

  gates::Context* ctx_;
  netlist::Circuit circuit_;
  SiSramParams params_;
  CellModel cell_;
  BitlineDynamics bitline_;
  std::unique_ptr<SramEnergyModel> energy_;
  std::unique_ptr<SramArray> array_;

  std::deque<Op> queue_;
  std::optional<Op> current_;
  std::unique_ptr<SteppedAccess> access_;

  sim::Wire* req_;
  sim::Wire* ack_;
  sim::Wire* pch_;
  sim::Wire* wl_;
  sim::Wire* we_;
  sim::Wire* done_;

  gates::EnergyMeter::GateId meter_id_ = 0;

  std::uint64_t reads_done_ = 0;
  std::uint64_t writes_done_ = 0;
  std::uint64_t write_failures_ = 0;
};

}  // namespace emc::sram
