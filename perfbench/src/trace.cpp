#include "trace.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

const std::array<const char*, kSlotCount> kSlotNames = {
    "device.sample_s",       "device.sample_calls",  "device.worst_vth_s",
    "device.delay_s",        "sram.cell_s",          "exp.row_s",
    "exp.body_s",            "exp.build_s",          "exp.build_calls",
    "async.construct_s",     "fault.elaborate_s",    "exp.teardown_s",
    "sim.run_s",             "supply.draw_count",    "supply.rejected_draws",
    "supply.energy_drawn_j", "gates.transitions",    "gates.meter_energy_j",
    "gates.stall_entries",   "fault.faults_seen",
};

namespace {

using Tally = std::array<double, kSlotCount>;

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

/// Every thread's tally; owned here so a tally outlives its thread.
std::vector<std::unique_ptr<Tally>>& registry() {
  static std::vector<std::unique_ptr<Tally>> tallies;
  return tallies;
}

Tally& local_tally() {
  thread_local Tally* tally = nullptr;
  if (tally == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(std::make_unique<Tally>());
    tally = registry().back().get();
  }
  return *tally;
}

}  // namespace

void Tracer::add(Slot slot, double v) { local_tally()[slot] += v; }

std::array<double, kSlotCount> Tracer::totals() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  Tally sum{};
  for (const auto& t : registry()) {
    for (std::size_t i = 0; i < kSlotCount; ++i) sum[i] += (*t)[i];
  }
  return sum;
}

}  // namespace perfbench
