#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/json.hpp"
#include "lint/graph.hpp"
#include "netlist/module.hpp"
#include "sched/petri.hpp"
#include "sim/kernel.hpp"

namespace emc::lint {

namespace {

std::string join(const std::vector<std::string>& v, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += sep;
    out += v[i];
  }
  return out;
}

std::string join_elements(const Graph& g,
                          const std::vector<netlist::ElementId>& ids) {
  std::vector<std::string> names;
  for (netlist::ElementId e : ids) {
    names.push_back(g.circuit->elements()[e].name);
  }
  return join(names, ", ");
}

/// Walk downstream of wire `start` (wire -> its readers -> the wires they
/// drive -> ...) until `stop_at_wire` or `stop_at_element` holds for a
/// reached node; returns whether the walk stopped there.
template <typename WirePred, typename ElementPred>
bool reaches(const Graph& g, netlist::WireId start, WirePred stop_at_wire,
             ElementPred stop_at_element) {
  std::vector<bool> seen(g.drivers.size(), false);
  std::vector<netlist::WireId> work{start};
  while (!work.empty()) {
    const netlist::WireId w = work.back();
    work.pop_back();
    if (seen[w]) continue;
    seen[w] = true;
    if (stop_at_wire(w)) return true;
    for (netlist::ElementId e : g.readers[w]) {
      if (stop_at_element(e)) return true;
      work.insert(work.end(), g.outputs[e].begin(), g.outputs[e].end());
    }
  }
  return false;
}

// --- W001/W002: wire driver rules ------------------------------------------
void rule_wires(const Graph& g, Report& r) {
  for (netlist::WireId w : g.wire_order) {
    const netlist::WireInfo& info = g.circuit->wire_infos()[w];
    const auto& drv = g.drivers[w];
    if (info.owned && !info.env_driven && drv.empty()) {
      const std::size_t nrd = g.readers[w].size();
      std::ostringstream os;
      os << "wire has no recorded driver and is not environment-driven ("
         << (nrd == 0 ? "completely unconnected"
                      : "read by " + std::to_string(nrd) + " element(s)")
         << ")";
      r.add(Finding{"W001", Severity::kError, info.name(), os.str(), {}, {}});
    }
    if (drv.size() >= 2) {
      r.add(Finding{"W002", Severity::kError, info.name(),
                    "wire is driven by " + std::to_string(drv.size()) +
                        " elements: " + join_elements(g, drv),
                    {}, {}});
    }
  }
}

// --- W003: element with no recorded connectivity ---------------------------
void rule_unrecorded(const Graph& g, Report& r) {
  for (netlist::ElementId e : g.element_order) {
    if (g.touched[e]) continue;
    const netlist::ElementInfo& info = g.circuit->elements()[e];
    r.add(Finding{"W003", Severity::kError, info.name,
                  std::string("element (") + netlist::to_string(info.kind) +
                      ") has zero recorded edges - an endpoint declared "
                      "without its note_edge() calls, so the connectivity "
                      "graph is blind to it",
                  {}, {}});
  }
}

// --- C001: combinational cycles --------------------------------------------
void rule_comb_cycles(const Graph& g, Report& r) {
  // Element-level adjacency between pure combinational elements, one node
  // per element in name order; state-holding kinds (C-element, toggle,
  // endpoint) legitimately close feedback loops, so they stay isolated
  // and break them here.
  const auto& elements = g.circuit->elements();
  const auto comb = [&](netlist::ElementId e) {
    return !netlist::is_state_holding(elements[e].kind);
  };
  std::vector<std::vector<std::size_t>> adj(elements.size());
  for (std::size_t w = 0; w < g.drivers.size(); ++w) {
    for (netlist::ElementId d : g.drivers[w]) {
      if (!comb(d)) continue;
      for (netlist::ElementId rdr : g.readers[w]) {
        if (comb(rdr)) adj[g.element_rank[d]].push_back(g.element_rank[rdr]);
      }
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  for (const auto& scc : cyclic_sccs(adj.size(), adj)) {
    std::vector<std::string> members;
    for (std::size_t i : scc) {
      members.push_back(elements[g.element_order[i]].name);
    }
    std::sort(members.begin(), members.end());
    r.add(Finding{"C001", Severity::kWarning, members.front(),
                  "combinational cycle with no state-holding element (" +
                      join(members, " -> ") +
                      "): oscillates or floats unless this loop is a "
                      "deliberate oscillator (suppress with a reason if so)",
                  members, {}});
  }
}

// --- H001: unpaired handshakes ---------------------------------------------
void rule_handshakes(const Graph& g, Report& r) {
  for (const auto& ch : g.circuit->channels()) {
    const std::string& req = g.wire_name(ch.req);
    const std::string& ack = g.wire_name(ch.ack);
    if (!g.driven(ch.ack)) {
      r.add(Finding{"H001", Severity::kError, req,
                    "handshake channel (" + req + ", " + ack +
                        "): ack is never driven - no responder is attached, "
                        "so a request can never be acknowledged",
                    {ack}, {}});
      continue;
    }
    // ack is driven by *something*; demand a structural path req ->* ack
    // so the acknowledgement actually depends on the request.
    const bool found = reaches(
        g, ch.req, [&](netlist::WireId w) { return w == ch.ack; },
        [](netlist::ElementId) { return false; });
    if (!found) {
      r.add(Finding{"H001", Severity::kError, req,
                    "handshake channel (" + req + ", " + ack +
                        "): ack is driven but unreachable from req - the "
                        "acknowledgement cannot depend on the request",
                    {ack}, {}});
    }
  }
}

// --- F001: isochronic forks ------------------------------------------------
void rule_forks(const Graph& g, Report& r) {
  for (netlist::WireId w : g.wire_order) {
    const auto& rdrs = g.readers[w];
    if (rdrs.size() < 2) continue;
    // Walk downstream; completion detection anywhere below the fork means
    // the design observes, rather than assumes, the fork's settling.
    const bool completion = reaches(
        g, w, [](netlist::WireId) { return false; },
        [&](netlist::ElementId e) {
          return g.circuit->elements()[e].kind ==
                 netlist::ElementKind::kCElement;
        });
    if (!completion) {
      r.add(Finding{"F001", Severity::kInfo, g.wire_name(w),
                    "isochronic fork: fans out to " +
                        std::to_string(rdrs.size()) + " elements (" +
                        join_elements(g, rdrs) +
                        ") with no completion detection downstream - " +
                        "correctness rests on a timing assumption here",
                    {}, {}});
    }
  }
}

/// The rule IDs this analyzer's own pipeline can produce (stale-
/// suppression detection must not call a T-rule waiver stale just
/// because the *lint* pass, which never emits T-rules, saw no match).
const std::vector<std::string>& lint_rules() {
  static const std::vector<std::string> kRules = {
      "W001", "W002", "W003", "C001", "H001", "D001", "F001"};
  return kRules;
}

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"W001", Severity::kError, "undriven wire (floating input)"},
      {"W002", Severity::kError, "multiply-driven wire (drive fight)"},
      {"W003", Severity::kError,
       "element with zero recorded edges (an endpoint missing note_edge)"},
      {"C001", Severity::kWarning,
       "combinational cycle with no state-holding element"},
      {"H001", Severity::kError, "unpaired handshake (req with no ack path)"},
      {"D001", Severity::kError,
       "structural deadlock (token-free cycle in the Petri abstraction)"},
      {"F001", Severity::kInfo,
       "isochronic fork without downstream completion detection"},
      {"S001", Severity::kInfo,
       "stale suppression (a build-site waiver matched no finding)"},
  };
  return kCatalog;
}

void apply_suppressions(const netlist::Circuit& c,
                        const std::vector<std::string>& handled_rules,
                        Report& r) {
  Report out;
  std::vector<bool> used(c.suppressions().size(), false);
  for (Finding f : r.findings()) {
    const auto& sups = c.suppressions();
    for (std::size_t i = 0; i < sups.size(); ++i) {
      const auto& s = sups[i];
      if (s.rule != f.rule) continue;
      const bool hit =
          s.subject == f.subject ||
          std::find(f.members.begin(), f.members.end(), s.subject) !=
              f.members.end();
      if (hit) {
        f.suppressed_reason = s.reason;
        used[i] = true;
        break;
      }
    }
    out.add(std::move(f));
  }
  // Stale-suppression detection (S001): a waiver for a rule this pass
  // actually runs that matched nothing no longer excuses anything — the
  // defect was fixed (delete the waiver) or the subject was renamed (the
  // waiver silently stopped protecting it). Informational, so a stale
  // waiver surfaces in every report without failing the gate.
  for (std::size_t i = 0; i < c.suppressions().size(); ++i) {
    if (used[i]) continue;
    const auto& s = c.suppressions()[i];
    if (std::find(handled_rules.begin(), handled_rules.end(), s.rule) ==
        handled_rules.end()) {
      continue;  // owned by another analyzer (e.g. a T-rule under lint)
    }
    out.add(Finding{"S001", Severity::kInfo, s.subject,
                    "suppression of " + s.rule + " (reason: " + s.reason +
                        ") matched no finding - the waiver is stale; "
                        "delete it or fix its subject",
                    {}, {}});
  }
  r = std::move(out);
}

void Report::merge(const Report& other) {
  findings_.insert(findings_.end(), other.findings_.begin(),
                   other.findings_.end());
}

Report Report::filtered(const std::vector<std::string>& rules) const {
  Report out;
  for (const auto& f : findings_) {
    if (std::find(rules.begin(), rules.end(), f.rule) != rules.end()) {
      out.add(f);
    }
  }
  return out;
}

std::size_t Report::active_count(Severity at_least) const {
  std::size_t n = 0;
  for (const auto& f : findings_) {
    if (!f.suppressed() &&
        static_cast<int>(f.severity) >= static_cast<int>(at_least)) {
      ++n;
    }
  }
  return n;
}

std::string Report::text() const {
  std::ostringstream os;
  for (const auto& f : findings_) {
    os << f.rule << " [" << to_string(f.severity) << "] " << f.subject << ": "
       << f.detail;
    if (f.suppressed()) os << " (suppressed: " << f.suppressed_reason << ")";
    os << "\n";
  }
  return os.str();
}

std::string Report::json(const std::string& subject_name) const {
  using analysis::json_quote;
  std::ostringstream os;
  os << "{\"subject\":" << json_quote(subject_name)
     << ",\"clean\":" << (clean() ? "true" : "false") << ",\"findings\":[";
  bool first = true;
  for (const auto& f : findings_) {
    if (!first) os << ",";
    first = false;
    os << "{\"rule\":" << json_quote(f.rule) << ",\"severity\":\""
       << to_string(f.severity) << "\",\"subject\":" << json_quote(f.subject)
       << ",\"detail\":" << json_quote(f.detail);
    if (!f.members.empty()) {
      os << ",\"members\":[";
      for (std::size_t i = 0; i < f.members.size(); ++i) {
        if (i > 0) os << ",";
        os << json_quote(f.members[i]);
      }
      os << "]";
    }
    if (f.suppressed()) {
      os << ",\"suppressed\":true,\"reason\":"
         << json_quote(f.suppressed_reason);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

Report analyze(const sched::EnergyPetriNet& net) {
  Report r;
  // Bipartite digraph: place -> transition (input arc), transition ->
  // place (output arc). Every *marked* place is removed — a token on a
  // cycle makes it live — so any cycle that survives carries no token and
  // can never fire again once control reaches it.
  const std::size_t np = net.place_count();
  const std::size_t nt = net.transition_count();
  std::vector<std::string> names(np + nt);
  std::vector<std::vector<std::size_t>> adj(np + nt);
  for (std::size_t p = 0; p < np; ++p) names[p] = net.place_name(p);
  for (std::size_t t = 0; t < nt; ++t) {
    names[np + t] = net.transition_name(t);
    for (auto p : net.transition_inputs(t)) {
      if (net.marking(p) == 0) adj[p].push_back(np + t);
    }
    for (auto p : net.transition_outputs(t)) {
      if (net.marking(p) == 0) adj[np + t].push_back(p);
    }
  }
  for (const auto& scc : cyclic_sccs(names.size(), adj)) {
    std::vector<std::string> members;
    for (std::size_t i : scc) members.push_back(names[i]);
    std::sort(members.begin(), members.end());
    r.add(Finding{"D001", Severity::kError, members.front(),
                  "token-free cycle (" + join(members, " -> ") +
                      "): every cycle of a live marked graph must carry at "
                      "least one token; this one can never fire - "
                      "structural deadlock",
                  members, {}});
  }
  return r;
}

void handshake_petri(const netlist::Circuit& c, sched::EnergyPetriNet& net) {
  const Graph g = build_graph(c);
  for (const auto& ch : c.channels()) {
    // One 4-phase cycle per channel:
    //   idle -(req+)-> waiting -(ack+)-> release -(req-)-> draining
    //        -(ack-)-> idle
    // The cycle's single token models the channel at rest. It exists only
    // when both sides are actually driven — an unanswered channel is a
    // token-free cycle, the static image of the dynamic deadlock the
    // kernel watchdog reports when the source waits forever.
    const bool responsive = g.driven(ch.req) && g.driven(ch.ack);
    const std::string& req = g.wire_name(ch.req);
    const std::string& ack = g.wire_name(ch.ack);
    const std::string tag = req + "/" + ack;
    const auto idle = net.add_place(tag + ".idle", responsive ? 1 : 0);
    const auto waiting = net.add_place(tag + ".waiting", 0);
    const auto release = net.add_place(tag + ".release", 0);
    const auto draining = net.add_place(tag + ".draining", 0);
    net.add_transition(req + "+", {idle}, {waiting});
    net.add_transition(ack + "+", {waiting}, {release});
    net.add_transition(req + "-", {release}, {draining});
    net.add_transition(ack + "-", {draining}, {idle});
  }
}

Report analyze(const netlist::Circuit& c) {
  const Graph g = build_graph(c);
  Report r;
  rule_wires(g, r);
  rule_unrecorded(g, r);
  rule_comb_cycles(g, r);
  rule_handshakes(g, r);
  if (!c.channels().empty()) {
    // D001 over the handshake abstraction. The scratch kernel only hosts
    // the net's construction; nothing is simulated.
    sim::Kernel scratch;
    sched::EnergyPetriNet net(scratch);
    handshake_petri(c, net);
    r.merge(analyze(net));
  }
  rule_forks(g, r);
  apply_suppressions(c, lint_rules(), r);
  return r;
}

}  // namespace emc::lint
