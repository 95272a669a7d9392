#include "lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
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

// --- W001/W002: wire driver rules ------------------------------------------
void rule_wires(const Graph& g, Report& r) {
  for (const auto& [name, info] : g.wires) {
    const auto d = g.drivers.find(name);
    const std::size_t ndrv = (d == g.drivers.end()) ? 0 : d->second.size();
    if (info.owned && !info.env_driven && ndrv == 0 &&
        g.radj.count(name) == 0) {
      // No element drives it and no edge even enters it from a peer wire.
      const auto rd = g.readers.find(name);
      const std::size_t nrd = (rd == g.readers.end()) ? 0 : rd->second.size();
      std::ostringstream os;
      os << "wire has no recorded driver and is not environment-driven ("
         << (nrd == 0 ? "completely unconnected"
                      : "read by " + std::to_string(nrd) + " element(s)")
         << ")";
      r.add(Finding{"W001", Severity::kError, name, os.str(), {}, {}});
    }
    if (ndrv >= 2) {
      std::vector<std::string> who(d->second.begin(), d->second.end());
      r.add(Finding{"W002", Severity::kError, name,
                    "wire is driven by " + std::to_string(ndrv) +
                        " elements: " + join(who, ", "),
                    {}, {}});
    }
  }
}

// --- W003: element with no recorded connectivity ---------------------------
void rule_unrecorded(const Graph& g, Report& r) {
  for (const auto& [name, kind] : g.elements) {
    if (g.touched.count(name) > 0) continue;
    r.add(Finding{"W003", Severity::kError, name,
                  std::string("element (") + netlist::to_string(kind) +
                      ") has zero recorded edges - a builder forgot "
                      "note_edge(), so the connectivity graph is blind to it",
                  {}, {}});
  }
}

// --- C001: combinational cycles --------------------------------------------
void rule_comb_cycles(const Graph& g, Report& r) {
  // Element-level adjacency restricted to pure combinational elements;
  // state-holding kinds (C-element, toggle, endpoint, unknown)
  // legitimately close feedback loops and therefore break them here.
  std::vector<std::string> names;
  std::map<std::string, std::size_t> id;
  for (const auto& [name, kind] : g.elements) {
    if (!netlist::is_state_holding(kind)) {
      id.emplace(name, names.size());
      names.push_back(name);
    }
  }
  std::vector<std::set<std::size_t>> aset(names.size());
  auto connect = [&](const std::string& a, const std::string& b) {
    auto ia = id.find(a);
    auto ib = id.find(b);
    if (ia != id.end() && ib != id.end()) aset[ia->second].insert(ib->second);
  };
  for (const auto& [wire, drvs] : g.drivers) {
    const auto rd = g.readers.find(wire);
    if (rd == g.readers.end()) continue;
    for (const auto& d : drvs) {
      for (const auto& rdr : rd->second) connect(d, rdr);
    }
  }
  for (const auto& [from, to] : g.edges) {
    if (g.is_element(from) && g.is_element(to)) connect(from, to);
  }
  std::vector<std::vector<std::size_t>> adj(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    adj[i].assign(aset[i].begin(), aset[i].end());
  }

  for (const auto& scc : cyclic_sccs(names.size(), adj)) {
    std::vector<std::string> members;
    for (std::size_t i : scc) members.push_back(names[i]);
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
void rule_handshakes(const Graph& g, const netlist::Circuit& c, Report& r) {
  for (const auto& ch : c.channels()) {
    if (!g.driven(ch.ack)) {
      r.add(Finding{"H001", Severity::kError, ch.req,
                    "handshake channel (" + ch.req + ", " + ch.ack +
                        "): ack is never driven - no responder is attached, "
                        "so a request can never be acknowledged",
                    {ch.ack}, {}});
      continue;
    }
    // ack is driven by *something*; demand a structural path req ->* ack
    // so the acknowledgement actually depends on the request.
    std::set<std::string> seen{ch.req};
    std::vector<std::string> work{ch.req};
    bool found = false;
    while (!work.empty() && !found) {
      const std::string v = std::move(work.back());
      work.pop_back();
      if (v == ch.ack) {
        found = true;
        break;
      }
      const auto it = g.adj.find(v);
      if (it == g.adj.end()) continue;
      for (const auto& w : it->second) {
        if (seen.insert(w).second) work.push_back(w);
      }
    }
    if (!found) {
      r.add(Finding{"H001", Severity::kError, ch.req,
                    "handshake channel (" + ch.req + ", " + ch.ack +
                        "): ack is driven but unreachable from req - the "
                        "acknowledgement cannot depend on the request",
                    {ch.ack}, {}});
    }
  }
}

// --- F001: isochronic forks ------------------------------------------------
void rule_forks(const Graph& g, Report& r) {
  for (const auto& [wire, rdrs] : g.readers) {
    if (rdrs.size() < 2) continue;
    // Walk downstream; completion detection anywhere below the fork means
    // the design observes, rather than assumes, the fork's settling.
    std::set<std::string> seen{wire};
    std::vector<std::string> work{wire};
    bool completion = false;
    while (!work.empty() && !completion) {
      const std::string v = std::move(work.back());
      work.pop_back();
      const auto e = g.elements.find(v);
      if (e != g.elements.end() &&
          e->second == netlist::ElementKind::kCElement) {
        completion = true;
        break;
      }
      const auto it = g.adj.find(v);
      if (it == g.adj.end()) continue;
      for (const auto& w : it->second) {
        if (seen.insert(w).second) work.push_back(w);
      }
    }
    if (!completion) {
      std::vector<std::string> who(rdrs.begin(), rdrs.end());
      r.add(Finding{"F001", Severity::kInfo, wire,
                    "isochronic fork: fans out to " +
                        std::to_string(rdrs.size()) + " elements (" +
                        join(who, ", ") +
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
       "element with zero recorded edges (missing note_edge)"},
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
    const std::string tag = ch.req + "/" + ch.ack;
    const auto idle = net.add_place(tag + ".idle", responsive ? 1 : 0);
    const auto waiting = net.add_place(tag + ".waiting", 0);
    const auto release = net.add_place(tag + ".release", 0);
    const auto draining = net.add_place(tag + ".draining", 0);
    net.add_transition(ch.req + "+", {idle}, {waiting});
    net.add_transition(ch.ack + "+", {waiting}, {release});
    net.add_transition(ch.req + "-", {release}, {draining});
    net.add_transition(ch.ack + "-", {draining}, {idle});
  }
}

Report analyze(const netlist::Circuit& c) {
  const Graph g = build_graph(c);
  Report r;
  rule_wires(g, r);
  rule_unrecorded(g, r);
  rule_comb_cycles(g, r);
  rule_handshakes(g, c, r);
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
