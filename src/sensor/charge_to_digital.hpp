// Charge-to-digital converter (Figs. 8-11, [9]).
//
// A self-timed toggle-chain counter is powered *from the sampling
// capacitor itself*: close S2 and the counter oscillates, every gate
// transition removing C*V of charge, until the cap can no longer drive
// the logic. Because speed-independent logic fires strictly in sequence
// with no hazards, the transition count — and hence the code frozen in
// the flip-flops — is an exact, monotonic function of the charge that was
// sampled. This is the paper's conceptual prototype of a computational
// engine directly modulated by its energy supply.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "async/counter.hpp"
#include "gates/energy_meter.hpp"
#include "gates/gate.hpp"
#include "supply/storage_cap.hpp"

namespace emc::sensor {

struct C2dParams {
  std::size_t counter_bits = 16;
  double sample_cap_f = 100e-12;  ///< 100 pF sampling capacitor
  /// Conversion-complete detection: the converter is polled at this
  /// period; once the cap is below the operating limit and the event
  /// queue around the counter is quiet, the code is final.
  sim::Time poll = sim::us(2);
};

struct ConversionResult {
  std::uint64_t code = 0;          ///< decoded counter state
  std::uint64_t transitions = 0;   ///< gate transitions spent
  double sampled_v = 0.0;          ///< Vin at S2 closing
  double residual_v = 0.0;         ///< cap voltage when the logic stalled
  double charge_used_c = 0.0;      ///< coulombs drawn from the cap
  double energy_used_j = 0.0;      ///< joules drawn from the cap
  double duration_s = 0.0;
};

class ChargeToDigitalConverter {
 public:
  /// The converter builds its own supply island (the sampling cap) but
  /// shares the kernel/model/meter of `host`.
  ChargeToDigitalConverter(gates::Context& host, std::string name,
                           C2dParams params);

  supply::SampleCap& cap() { return *cap_; }
  async::ToggleRippleCounter& counter() { return *counter_; }

  /// Sample `vin` and start converting; `on_done` fires when the counter
  /// has run out of charge. One conversion at a time.
  void convert(double vin, std::function<void(const ConversionResult&)> cb);

  /// Expected transitions for a sampled voltage (closed-form check):
  /// N = (C_s / C_eff) * ln(V0 / Vmin) — the logarithmic charge-to-count
  /// law the event simulation must reproduce.
  double expected_transitions(double vin) const;

 private:
  void poll();
  void finish();

  gates::Context host_;  ///< copy of the host context with our supply
  std::string name_;
  C2dParams params_;
  std::unique_ptr<supply::SampleCap> cap_;
  std::unique_ptr<gates::Context> island_;
  std::unique_ptr<async::ToggleRippleCounter> counter_;
  bool converting_ = false;
  std::function<void(const ConversionResult&)> cb_;
  ConversionResult pending_;
  double charge_before_ = 0.0;
  double energy_before_ = 0.0;
  std::uint64_t trans_before_ = 0;
  std::uint64_t last_poll_draws_ = 0;
  sim::Time started_ = 0;
};

}  // namespace emc::sensor
