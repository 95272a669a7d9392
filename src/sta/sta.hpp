// Static timing & margin analyzer (emc::sta).
//
// The paper's bundled-data circuits stay correct only while every
// matched delay line exceeds its datapath at *every* operating point —
// a contract one figure's Vdd sweep samples but never proves. This
// layer proves (or refutes) it statically: builders annotate timing
// arcs on the connectivity inventory netlist::Circuit already records
// (Circuit::comb() does it automatically; delay lines and completion
// detectors replay arcs through their describe_into hooks), and the
// analyzer propagates longest paths over the resulting wire graph —
// arcs inside cyclic SCCs (deliberate oscillator rings, found with the
// same Tarjan pass the lint layer uses) are excluded, and behavioural
// state-holding endpoints cut the propagation naturally because no arc
// crosses them. Each constraint is then swept over a Vdd grid spanning
// the circuit's declared operating range, nominal and at the
// device::Variation worst-case pairing (slowest datapath device vs
// fastest delay-line device), with no kernel run at all.
//
// Rule catalog (same Finding/Report/suppression pipeline as emc::lint):
//   T001  bundled-data margin  a recorded bundle whose trigger (delay
//         violation            line) arrives before min_ratio times the
//                              datapath settling at some Vdd in the
//                              operating range, nominal or worst-corner
//   T002  drifting isochronic  a wire forking into timing arcs whose
//         fork                 branch skew grows beyond tolerance as Vdd
//                              falls (threshold asymmetry between the
//                              branches) — the checked upgrade of lint's
//                              informational F001, where arcs exist
//   T003  min-operating-Vdd    the circuit's statically derived minimum
//         mismatch             functional Vdd (all arcs finite, all
//                              margins met) sits above the bottom of its
//                              declared operating range
//   S001  stale suppression    shared with lint: a T-rule waiver that
//                              matched no finding
//
// A circuit that records bundles but no timing arcs on their paths is a
// *vacuous* model — the analysis refuses to call it clean (Analysis::
// vacuous; `emc_repro sta` exits 2, mirroring a missing lint model).
#pragma once

#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "netlist/module.hpp"

namespace emc::sta {

/// One point of a margin-vs-Vdd curve (the machine-readable artifact the
/// CI gate uploads). `corner` marks the adversarial-pairing evaluation.
struct MarginPoint {
  std::string bundle;
  double vdd = 0.0;
  double datapath_s = 0.0;
  double trigger_s = 0.0;
  double ratio = 0.0;
  double limit = 1.0;
  bool corner = false;
  bool ok = true;
};

struct Analysis {
  lint::Report report;
  /// Margin curves for every bundle (nominal and corner rows).
  std::vector<MarginPoint> curve;
  /// Timing arcs recorded on the circuit (0 + bundles => vacuous).
  std::size_t arc_count = 0;
  /// Bundles present but not a single arc on their trigger or datapath:
  /// the timing model is missing, not clean.
  bool vacuous = false;
  /// Lowest grid Vdd from which the circuit stays statically functional
  /// up to the top of its range (+inf if none).
  double min_functional_vdd = 0.0;
  /// The operating range the analysis swept (declared or default).
  netlist::OperatingRange range;
};

/// The stable timing-rule catalog (T001/T002/T003 + shared S001).
const std::vector<lint::RuleInfo>& rule_catalog();

/// Run the timing pipeline over `c`'s recorded arcs and bundles.
/// Build-site suppressions for T-rules are applied (stale ones surface
/// as S001), exactly like the lint pipeline.
Analysis analyze(const netlist::Circuit& c);

}  // namespace emc::sta
