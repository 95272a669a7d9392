// Waveform and analogue tracing.
//
// Two sinks:
//  * VcdWriter — standard IEEE 1364 VCD for digital rails, so the
//    handshake traces of Figs. 4/6/7 can be inspected in GTKWave.
//  * AnalogTrace — (time, value) series for Vdd / charge / power curves,
//    dumpable as CSV for the figure benches.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "sim/signal.hpp"
#include "sim/time.hpp"

namespace emc::sim {

class VcdWriter {
 public:
  /// Writes `path` (header, then the buffered changes) on finalize().
  /// Signals must be added before the first value change is recorded.
  explicit VcdWriter(std::string path);
  ~VcdWriter();

  VcdWriter(const VcdWriter&) = delete;
  VcdWriter& operator=(const VcdWriter&) = delete;

  /// Attach a boolean signal; it is sampled immediately and on change.
  void add(Wire& wire);

  /// Write and close the file; false (with a warning on stderr) on I/O
  /// failure. Safe to call more than once: a repeat call writes nothing
  /// and returns the first call's result.
  [[nodiscard]] bool finalize();

  std::uint64_t changes_recorded() const { return changes_; }

 private:
  /// One attached wire. Also the zero-allocation listener context handed
  /// to Wire::subscribe_raw, so it carries a back-pointer to the writer;
  /// channels_ is a deque to keep these addresses stable across add().
  struct Channel {
    std::string id;     // VCD short identifier
    std::string name;   // human name from the signal
    bool last;
    VcdWriter* owner = nullptr;
    std::size_t index = 0;
  };

  void record(std::size_t channel, bool value, Time t);
  static void on_wire_change(void* ctx, const Wire& w);
  static std::string id_for(std::size_t index);

  std::string path_;
  std::deque<Channel> channels_;
  std::vector<std::pair<Time, std::string>> body_;  // buffered changes
  std::uint64_t changes_ = 0;
  bool finalized_ = false;
  bool written_ = false;
};

/// Piecewise-sampled analogue quantity (voltage, power, charge, ...).
class AnalogTrace {
 public:
  explicit AnalogTrace(std::string name) : name_(std::move(name)) {}

  void sample(Time t, double value) { points_.emplace_back(t, value); }

  /// Write "time_s,value" rows (with header) to `path`; false (with a
  /// warning on stderr) on I/O failure.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<Time, double>> points_;
};

}  // namespace emc::sim
