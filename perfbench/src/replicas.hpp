// Traced replicas of the benchmark's workloads.
//
// Each replica does the work of one workload pass through the same public
// entry points the figure does, timing every call it makes into a layer.
// It writes the same artifacts into the working directory; their sha256
// must equal the untraced pass's, which is how the benchmark proves the
// replica did the same work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct TracedResult {
  /// Per-layer metrics by name (seconds, counts, joules).
  std::map<std::string, double> metrics;
  /// Every artifact written: file -> sha256.
  std::map<std::string, std::string> artifacts;
  /// Kernel events executed, per figure run.
  std::map<std::string, std::uint64_t> events;
  /// Operations that failed (lint/sta findings, ref mismatches, throws).
  std::vector<std::string> failures;
  /// Operations attempted (figure runs and checks).
  std::size_t attempted = 0;
};

/// fig_mc_yield at `trials` virtual chips per Vdd point, at the
/// figure's registered seed.
TracedResult trace_mc_yield(std::size_t trials, unsigned threads);

/// fig_survivability at `trials` trials per grid point, at the figure's
/// registered seed.
TracedResult trace_survivability(std::size_t trials, unsigned threads);

/// `emc_repro run <figures> --check --lint --sta --jobs 1`: lint, sta,
/// run, hash and ref-check each figure in order.
TracedResult trace_repro_suite(const std::vector<std::string>& figures,
                               const std::string& refs_dir);

}  // namespace perfbench
