// Four-phase handshake plumbing.
//
// The SI SRAM controller and the counters coordinate through req/ack
// pairs ("building on the genuine completion indication, the control uses
// handshake protocols", Fig. 6). This header provides the channel bundle
// plus an active-side driver and a passive-side responder used by tests
// and benches to source/sink handshakes with real gate delays.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "gates/gate.hpp"
#include "sim/signal.hpp"

namespace emc::netlist {
class Circuit;
}

namespace emc::async {

/// A req/ack wire pair (owned elsewhere, usually by a Circuit).
struct Channel {
  sim::Wire* req;
  sim::Wire* ack;
};

/// Active side of a 4-phase handshake: raises req, waits for ack, lowers
/// req, waits for ack release — `cycles` times, recording per-cycle
/// latency. All actions are event-driven (no timeouts), so the source is
/// itself speed-independent.
class HandshakeSource {
 public:
  HandshakeSource(gates::Context& ctx, std::string name, Channel ch);

  /// Begin `cycles` handshakes; `on_done` fires after the last release.
  void start(std::uint64_t cycles, std::function<void()> on_done = nullptr);

  std::uint64_t completed() const { return completed_; }
  /// Latency of the most recent full cycle [s].
  double last_cycle_seconds() const { return last_cycle_s_; }

  /// True while a started batch has cycles outstanding — the handshake
  /// is mid-protocol, and an empty event queue means deadlock, not
  /// completion. This is exactly what a Kernel quiescence probe reports:
  ///   kernel.add_probe([&] { return src.mid_protocol()
  ///       ? sim::ProbeState::kBusy : sim::ProbeState::kIdle; });
  bool mid_protocol() const { return remaining_ > 0; }

  /// Record this endpoint in `c`'s connectivity inventory: an endpoint
  /// element driving req and reading ack, plus the handshake channel
  /// itself (lint rules H001/D001 consume the channel list). A source
  /// registered without a matching responder shows up statically as a
  /// token-free handshake cycle — the same defect run_guarded() reports
  /// as `deadlocked` dynamically.
  void register_in(netlist::Circuit& c) const;

 private:
  void on_ack();
  void raise_req();

  gates::Context* ctx_;
  std::string name_;
  Channel ch_;
  std::uint64_t remaining_ = 0;
  std::uint64_t completed_ = 0;
  sim::Time cycle_start_ = 0;
  double last_cycle_s_ = 0.0;
  std::function<void()> on_done_;
};

/// Passive side: mirrors req onto ack through a configurable number of
/// gate delays (a stand-in for the downstream logic's latency). Browned
/// out req edges are not lost: the sink re-arms on the supply's wake
/// callback (storage caps) or polls at retry_hint() (AC), replaying the
/// live req level on recovery.
class HandshakeSink {
 public:
  HandshakeSink(gates::Context& ctx, std::string name, Channel ch,
                double delay_stages = 2.0);

  /// Fault hook (emc::fault): stop responding to req edges. A stalled
  /// sink wedges its source mid-protocol — with no recovery scheduled
  /// this is the canonical deliberate deadlock the kernel watchdog must
  /// classify instead of hanging on.
  void stall() { stalled_ = true; }
  /// Clear the stall and replay the pending req level, if any.
  void resume();
  bool stalled() const { return stalled_; }

  /// Record this endpoint in `c`'s connectivity inventory: an endpoint
  /// element reading req and driving ack, completing the channel a
  /// HandshakeSource registered (or noting it afresh).
  void register_in(netlist::Circuit& c) const;

 private:
  void on_req();
  /// True when the ack has yet to mirror the current req level.
  bool edge_pending() const { return ch_.req->read() != ch_.ack->read(); }

  gates::Context* ctx_;
  std::string name_;
  Channel ch_;
  double delay_stages_;
  bool stalled_ = false;
};

}  // namespace emc::async
