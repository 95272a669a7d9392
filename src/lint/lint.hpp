// Static netlist analyzer (emc::lint).
//
// The paper's async, energy-modulated circuits fail in *structural*
// ways — unacknowledged transitions, broken req/ack cycles, pure
// combinational feedback with no state-holding element — that the
// dynamic path only discovers when Kernel::run_guarded classifies a
// dead run. This layer finds them before simulation, in milliseconds,
// from the connectivity inventory netlist::Circuit records (wires with
// origin flags, typed elements, edges, handshake channels).
//
// Rule catalog (IDs are stable; severities in rule_catalog()):
//   W001  undriven wire        a non-external, non-env-driven wire with
//                              no recorded driver (floating input)
//   W002  multiply-driven wire two or more distinct element drivers on
//                              one wire (drive fight)
//   W003  unrecorded element   an inventoried element with zero incident
//                              edges — a builder forgot note_edge(), so
//                              the graph (lint and timing alike) is blind
//                              to it; fails loudly so gaps cannot creep
//                              back in
//   C001  combinational cycle  a feedback loop whose every element is
//                              pure combinational logic — an oscillation
//                              hazard unless it IS the oscillator
//                              (suppress at the build site with
//                              Circuit::suppress)
//   H001  unpaired handshake   a recorded req/ack channel whose ack is
//                              never driven or is unreachable from req —
//                              the request can never be acknowledged
//   D001  structural deadlock  a token-free cycle in the Petri-net
//                              abstraction (marked-graph liveness: every
//                              cycle must carry >= 1 initial token);
//                              runs on the handshake abstraction derived
//                              from the channel inventory and on any
//                              sched::EnergyPetriNet directly
//   F001  isochronic fork      informational: a wire fanning out to >= 2
//                              elements with no completion detection
//                              (C-element) downstream — the timing
//                              assumption bundled-data designs rest on,
//                              surfaced rather than judged (emc::sta's
//                              T002 *checks* it where timing arcs exist)
//   S001  stale suppression    informational: a build-site waiver that
//                              matched no finding — the defect it excused
//                              is gone (delete the waiver) or its subject
//                              was renamed (the waiver protects nothing)
//
// Suppression: Circuit::suppress(rule, subject, reason) waives a finding
// whose subject (or any cycle member) matches; the reason is mandatory
// and carried into reports, mirroring justified NOLINT comments.
// The timing rules (T001-T003, src/sta/) share this report/suppression
// pipeline; each analyzer only stale-checks waivers for rules it runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace emc::netlist {
class Circuit;
}
namespace emc::sched {
class EnergyPetriNet;
}

namespace emc::lint {

enum class Severity { kInfo, kWarning, kError };

const char* to_string(Severity s);

struct Finding {
  std::string rule;
  Severity severity = Severity::kWarning;
  /// The wire/element/transition the finding anchors to (deterministic:
  /// cycle findings anchor to their lexicographically smallest member).
  std::string subject;
  std::string detail;
  /// All participants of a cycle finding (empty for point findings);
  /// suppressions match the subject or any member.
  std::vector<std::string> members;
  /// Non-empty = waived at the build site; the finding is reported but
  /// does not affect clean().
  std::string suppressed_reason;

  bool suppressed() const { return !suppressed_reason.empty(); }
};

struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The stable rule catalog (ID -> default severity + one-line summary).
const std::vector<RuleInfo>& rule_catalog();

class Report {
 public:
  void add(Finding f) { findings_.push_back(std::move(f)); }
  void merge(const Report& other);

  const std::vector<Finding>& findings() const { return findings_; }

  /// Unsuppressed findings at `at_least` severity or above.
  std::size_t active_count(Severity at_least = Severity::kWarning) const;

  /// No unsuppressed finding at warning severity or above (informational
  /// findings and suppressed findings do not dirty a report).
  bool clean() const { return active_count(Severity::kWarning) == 0; }

  /// A copy holding only findings whose rule is in `rules` (the --only
  /// CLI filter; suppressed findings of a kept rule are kept too).
  Report filtered(const std::vector<std::string>& rules) const;

  /// Human-readable listing (one line per finding, suppressions marked).
  std::string text() const;

  /// Machine-readable object: {"subject": name, "clean": bool,
  /// "findings": [...], "suppressed": [...]}.
  std::string json(const std::string& subject_name) const;

 private:
  std::vector<Finding> findings_;
};

/// Run the full rule pipeline over a circuit's connectivity inventory:
/// W001/W002/W003, C001, H001, F001, and D001 on the handshake Petri
/// abstraction derived from the recorded channels. Suppressions recorded
/// on the circuit are applied before the report is returned.
Report analyze(const netlist::Circuit& c);

/// D001 only: structural liveness of a Petri net's current marking —
/// report every cycle that carries no token (the net can never fire
/// around it again once execution reaches it; for marked graphs this is
/// exactly the classic liveness condition).
Report analyze(const sched::EnergyPetriNet& net);

/// Apply `c`'s build-site suppressions to `r`: findings matched by a
/// waiver are marked suppressed; waivers for a rule in `handled_rules`
/// that matched nothing become S001 (stale suppression) info findings.
/// `handled_rules` is the set of rule IDs the calling analyzer actually
/// runs — a T-rule waiver is not stale just because the lint pass, which
/// never emits T-rules, saw no match (and vice versa).
void apply_suppressions(const netlist::Circuit& c,
                        const std::vector<std::string>& handled_rules,
                        Report& r);

/// Build the 4-phase Petri abstraction of `c`'s recorded handshake
/// channels into `net`: per channel a req+ -> ack+ -> req- -> ack- cycle
/// whose single token exists only when both sides have a recorded driver
/// (an unanswered channel yields a token-free cycle, i.e. D001 — the
/// static mirror of the watchdog's `deadlocked` verdict).
void handshake_petri(const netlist::Circuit& c, sched::EnergyPetriNet& net);

}  // namespace emc::lint
