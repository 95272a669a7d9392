#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "device/delay_model.hpp"
#include "device/variation.hpp"
#include "gates/gate.hpp"
#include "lint/graph.hpp"

namespace emc::sta {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Vdd grid resolution over the operating range (inclusive endpoints).
constexpr std::size_t kGridPoints = 21;
// Process spread for the worst-case corner pairing: a conservative local
// box of +/- 15 mV Vth and +/- 6 % drive at kSigmaK = 3.
constexpr double kVthSigmaV = 0.005;
constexpr double kStrengthSigma = 0.02;
// How many local sigmas the corner box extends.
constexpr double kSigmaK = 3.0;
// T002: allowed growth factor of a fork's branch skew between the top
// and the bottom of the operating range.
constexpr double kForkDriftTolerance = 1.25;

// ---------------------------------------------------------------------------
// Wire-level timing graph: nodes are wire names, edges are TimingArcs.
// Arcs internal to a cyclic SCC (deliberate oscillator rings such as the
// Muller pipeline or a dual-rail completion loop) are excluded from
// longest-path propagation — a self-timed loop has no "arrival time" —
// but remain visible to the fork analysis, which is purely local.
// ---------------------------------------------------------------------------
struct WireGraph {
  std::vector<std::string> names;
  std::map<std::string, std::size_t> index;
  /// All recorded arcs (fork analysis sees every one).
  std::vector<const netlist::TimingArc*> arcs;
  /// Arc indices kept for path propagation (acyclic by construction).
  std::vector<std::size_t> kept;
  std::vector<std::vector<std::size_t>> out_kept;  ///< per node
  std::vector<std::size_t> kept_in_degree;         ///< per node
  std::vector<std::size_t> topo;                   ///< node topo order

  std::size_t node(const std::string& n) const {
    auto it = index.find(n);
    return it == index.end() ? names.size() : it->second;
  }
};

WireGraph build_wire_graph(const netlist::Circuit& c) {
  WireGraph g;
  auto intern = [&g](const std::string& n) {
    auto it = g.index.find(n);
    if (it != g.index.end()) return it->second;
    const std::size_t id = g.names.size();
    g.names.push_back(n);
    g.index.emplace(n, id);
    return id;
  };
  for (const auto& a : c.timing_arcs()) {
    intern(a.from);
    intern(a.to);
    g.arcs.push_back(&a);
  }
  const std::size_t n = g.names.size();

  // Cycle detection over the full arc set (shared Tarjan pass).
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto* a : g.arcs) {
    adj[g.index.at(a->from)].push_back(g.index.at(a->to));
  }
  std::vector<std::size_t> scc_of(n, n);  // n = "not in a cyclic SCC"
  const auto sccs = lint::cyclic_sccs(n, adj);
  for (std::size_t s = 0; s < sccs.size(); ++s) {
    for (std::size_t v : sccs[s]) scc_of[v] = s;
  }

  g.out_kept.assign(n, {});
  g.kept_in_degree.assign(n, 0);
  for (std::size_t i = 0; i < g.arcs.size(); ++i) {
    const std::size_t u = g.index.at(g.arcs[i]->from);
    const std::size_t v = g.index.at(g.arcs[i]->to);
    if (scc_of[u] < n && scc_of[u] == scc_of[v]) continue;  // ring-internal
    g.kept.push_back(i);
    g.out_kept[u].push_back(i);
    ++g.kept_in_degree[v];
  }

  // Kahn order over the kept arcs. Every node ends up in the order: a
  // leftover cycle would contradict the SCC exclusion above.
  std::vector<std::size_t> degree = g.kept_in_degree;
  std::vector<std::size_t> queue;
  for (std::size_t v = 0; v < n; ++v) {
    if (degree[v] == 0) queue.push_back(v);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    g.topo.push_back(u);
    for (std::size_t ai : g.out_kept[u]) {
      const std::size_t v = g.index.at(g.arcs[ai]->to);
      if (--degree[v] == 0) queue.push_back(v);
    }
  }
  return g;
}

double arc_delay(const device::DelayModel& model, const netlist::TimingArc& a,
                 double vdd, const device::DeviceSample& s) {
  return model.delay_seconds(vdd, a.load * model.tech().c_inv,
                             a.vth_offset + s.vth_offset, s.strength);
}

/// Longest arrival time per node from the graph sources, all of which are
/// taken to switch at t = 0 (for a bundled stage that is exactly the
/// capture event: the latch flips the state wires and relaunches `go` in
/// the same instant).
using Arrival = std::vector<double>;

Arrival propagate(const WireGraph& g, const device::DelayModel& model,
                  double vdd, const device::DeviceSample& s) {
  Arrival dist(g.names.size(), 0.0);
  for (std::size_t u : g.topo) {
    for (std::size_t ai : g.out_kept[u]) {
      const auto& a = *g.arcs[ai];
      const std::size_t v = g.index.at(a.to);
      dist[v] = std::max(dist[v], dist[u] + arc_delay(model, a, vdd, s));
    }
  }
  return dist;
}

std::string fmt_v(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

std::string fmt_ratio(double r) {
  if (!std::isfinite(r)) return "inf";
  std::ostringstream os;
  os.precision(3);
  os << r;
  return os.str();
}

const std::vector<std::string>& handled_rules() {
  static const std::vector<std::string> kRules{"T001", "T002", "T003"};
  return kRules;
}

}  // namespace

const std::vector<lint::RuleInfo>& rule_catalog() {
  static const std::vector<lint::RuleInfo> kCatalog{
      {"T001", lint::Severity::kError,
       "bundled-data margin violation (trigger beats datapath at some Vdd, "
       "nominal or worst process corner)"},
      {"T002", lint::Severity::kWarning,
       "drifting isochronic fork (branch skew grows as Vdd falls - "
       "threshold asymmetry between the branches)"},
      {"T003", lint::Severity::kError,
       "min-operating-Vdd mismatch (statically functional floor sits above "
       "the declared operating range)"},
      {"S001", lint::Severity::kInfo,
       "stale suppression (a build-site waiver matched no finding; shared "
       "with emc::lint)"},
  };
  return kCatalog;
}

Analysis analyze(const netlist::Circuit& c) {
  Analysis out;
  out.range = c.operating_range();
  const device::DelayModel& model = c.ctx().model;
  const WireGraph g = build_wire_graph(c);
  out.arc_count = g.arcs.size();

  // Vdd grid, lo..hi inclusive.
  std::vector<double> grid;
  if (out.range.hi <= out.range.lo) {
    grid.push_back(out.range.lo);
  } else {
    for (std::size_t i = 0; i < kGridPoints; ++i) {
      grid.push_back(out.range.lo + (out.range.hi - out.range.lo) *
                                        static_cast<double>(i) /
                                        static_cast<double>(kGridPoints - 1));
    }
  }

  const device::DeviceSample nominal{};
  const device::Variation variation =
      device::Variation::local(kVthSigmaV, kStrengthSigma);
  const device::DeviceSample slow = variation.worst_slow(kSigmaK);
  const device::DeviceSample fast = variation.worst_fast(kSigmaK);

  // Arrival times per grid point: nominal, plus the adversarial pairing
  // (slowest datapath device vs fastest delay-line device).
  std::vector<Arrival> arr_nom, arr_slow, arr_fast;
  arr_nom.reserve(grid.size());
  for (double v : grid) {
    arr_nom.push_back(propagate(g, model, v, nominal));
    arr_slow.push_back(propagate(g, model, v, slow));
    arr_fast.push_back(propagate(g, model, v, fast));
  }

  // --- T001: bundled-data margin, per recorded bundle -----------------------
  // Per-grid-point nominal bundle health, reused by T003.
  std::vector<bool> bundles_ok_nominal(grid.size(), true);

  for (const auto& b : c.bundles()) {
    const std::size_t trig = g.node(b.trigger);
    std::vector<std::size_t> targets;
    for (const auto& t : b.targets) {
      const std::size_t id = g.node(t);
      if (id < g.names.size() && g.kept_in_degree[id] > 0) targets.push_back(id);
    }
    if (trig >= g.names.size() || g.kept_in_degree[trig] == 0 ||
        targets.empty()) {
      // The contract is recorded but the timing model behind it is not:
      // no arcs reach the trigger or the datapath. Refusing to evaluate
      // is the point — a missing model must not read as a clean one.
      out.vacuous = true;
      continue;
    }

    bool violated = false;
    double worst_ratio = kInf;
    std::size_t worst_i = 0;
    bool worst_corner = false;
    std::size_t worst_target = targets.front();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      for (int corner = 0; corner < 2; ++corner) {
        const Arrival& dp_arr = corner ? arr_slow[i] : arr_nom[i];
        const Arrival& tr_arr = corner ? arr_fast[i] : arr_nom[i];
        double dp = -1.0;
        std::size_t dp_at = targets.front();
        for (std::size_t t : targets) {
          if (dp_arr[t] > dp) {
            dp = dp_arr[t];
            dp_at = t;
          }
        }
        const double tr = tr_arr[trig];
        const double ratio = (std::isfinite(dp) && dp > 0.0)
                                 ? tr / dp
                                 : std::numeric_limits<double>::quiet_NaN();
        const bool ok = std::isfinite(dp) && std::isfinite(tr) && dp > 0.0 &&
                        ratio >= b.min_ratio;
        MarginPoint p;
        p.bundle = b.name;
        p.vdd = grid[i];
        p.datapath_s = dp;
        p.trigger_s = tr;
        p.ratio = ratio;
        p.limit = b.min_ratio;
        p.corner = corner != 0;
        p.ok = ok;
        out.curve.push_back(p);
        if (!ok) {
          violated = true;
          if (corner == 0) bundles_ok_nominal[i] = false;
          const double key = std::isfinite(ratio) ? ratio : -kInf;
          if (key < worst_ratio || !std::isfinite(worst_ratio)) {
            worst_ratio = key;
            worst_i = i;
            worst_corner = corner != 0;
            worst_target = dp_at;
          }
        }
      }
    }
    if (violated) {
      lint::Finding f;
      f.rule = "T001";
      f.severity = lint::Severity::kError;
      f.subject = b.name;
      f.members.push_back(b.trigger);
      f.members.insert(f.members.end(), b.targets.begin(), b.targets.end());
      std::ostringstream d;
      d << "bundled-data margin violated"
        << (worst_corner ? " at the worst process corner" : " at nominal")
        << ": at Vdd=" << fmt_v(grid[worst_i]) << " V the trigger '"
        << b.trigger << "' arrives at ratio " << fmt_ratio(worst_ratio)
        << " of the '" << g.names[worst_target]
        << "' datapath settling (required >= " << fmt_ratio(b.min_ratio)
        << ") - the latch captures unsettled data there";
      f.detail = d.str();
      out.report.add(std::move(f));
    }
  }

  // --- T002: drifting isochronic forks --------------------------------------
  // A wire forking into arcs with matched thresholds keeps a constant
  // branch skew at every Vdd (delay is linear in load at fixed Vth); a
  // threshold asymmetry makes the skew *grow* as Vdd falls — the silent
  // way an isochronic-fork assumption (lint F001) dies at low voltage.
  {
    std::map<std::string, std::vector<const netlist::TimingArc*>> forks;
    for (const auto* a : g.arcs) forks[a->from].push_back(a);
    const double v_lo = grid.front();
    const double v_hi = grid.back();
    for (const auto& [wire, branches] : forks) {
      if (branches.size() < 2) continue;
      double lo_min = kInf, lo_max = 0.0, hi_min = kInf, hi_max = 0.0;
      const netlist::TimingArc* slow_branch = nullptr;
      for (const auto* a : branches) {
        const double dl = arc_delay(model, *a, v_lo, nominal);
        const double dh = arc_delay(model, *a, v_hi, nominal);
        lo_min = std::min(lo_min, dl);
        if (dl >= lo_max) {
          lo_max = dl;
          slow_branch = a;
        }
        hi_min = std::min(hi_min, dh);
        hi_max = std::max(hi_max, dh);
      }
      const double skew_hi = hi_max / hi_min;
      const double skew_lo = lo_max / lo_min;  // inf if a branch dies first
      if (skew_lo <= skew_hi * kForkDriftTolerance) continue;
      lint::Finding f;
      f.rule = "T002";
      f.severity = lint::Severity::kWarning;
      f.subject = wire;
      for (const auto* a : branches) f.members.push_back(a->via);
      std::ostringstream d;
      d << "isochronic-fork skew drifts across the operating range: branch "
           "skew "
        << fmt_ratio(skew_hi) << "x at " << fmt_v(v_hi) << " V grows to "
        << fmt_ratio(skew_lo) << "x at " << fmt_v(v_lo) << " V (limit "
        << fmt_ratio(skew_hi * kForkDriftTolerance)
        << "x); the slow branch through '"
        << (slow_branch != nullptr ? slow_branch->via : std::string{})
        << "' has a higher effective threshold than its siblings";
      f.detail = d.str();
      out.report.add(std::move(f));
    }
  }

  // --- T003: statically derived minimum functional Vdd ----------------------
  // A grid point is functional when every recorded arc (ring arcs too: a
  // frozen oscillator is as dead as a frozen path) has finite delay and
  // every bundle meets its nominal margin. The functional floor is the
  // lowest grid point from which everything above stays functional.
  {
    std::vector<bool> functional(grid.size(), true);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      for (const auto* a : g.arcs) {
        if (!std::isfinite(arc_delay(model, *a, grid[i], nominal))) {
          functional[i] = false;
          break;
        }
      }
      if (!bundles_ok_nominal[i]) functional[i] = false;
    }
    std::size_t floor_idx = grid.size();
    for (std::size_t i = grid.size(); i-- > 0;) {
      if (!functional[i]) break;
      floor_idx = i;
    }
    out.min_functional_vdd = floor_idx < grid.size() ? grid[floor_idx] : kInf;
    if (!out.vacuous && out.arc_count > 0 && floor_idx != 0) {
      lint::Finding f;
      f.rule = "T003";
      f.severity = lint::Severity::kError;
      f.subject = c.name();
      std::ostringstream d;
      d << "declared operating range reaches down to " << fmt_v(out.range.lo)
        << " V but ";
      if (floor_idx < grid.size()) {
        d << "the circuit is statically functional only from "
          << fmt_v(grid[floor_idx]) << " V up";
      } else {
        d << "the circuit is not statically functional at any grid point";
      }
      d << " (every arc finite and every bundled margin met, nominal "
           "process)";
      f.detail = d.str();
      out.report.add(std::move(f));
    }
  }

  lint::apply_suppressions(c, handled_rules(), out.report);
  return out;
}

}  // namespace emc::sta
