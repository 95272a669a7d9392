// Circuit: an owning container for wires and gates with hierarchical
// naming, the unit from which the paper's blocks (counters, SRAM,
// sensors) are assembled.
//
// Ownership model: a Circuit owns its wires and gates (unique_ptr, stable
// addresses); gates reference wires; everything shares one Context
// (kernel + delay model + supply + meter). Circuits are built once and
// torn down together — no dynamic reconfiguration, matching silicon.
//
// Connectivity metadata: besides ownership, a Circuit records a *typed*
// inventory of its structure — wires (with origin flags: env-driven
// testbench ports, external/foreign nets), elements (with an
// ElementKind, so an analyzer sees "C-element" instead of a name
// string), name-pair edges, handshake channels, and rule suppressions.
// emc::lint's static rule passes (src/lint/) consume the whole
// inventory. comb() and emplace<> record elements automatically; edges
// for emplace<>'d gates must still be note_edge()'d by the builder — the
// linter's W003 rule fails loudly on any element with zero recorded
// edges, so a forgotten note_edge cannot silently produce an incomplete
// graph again.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gates/combinational.hpp"
#include "gates/gate.hpp"
#include "sim/signal.hpp"

namespace emc::gates {
// Complete definitions are not needed for the kind mapping below —
// emplace<T> sees the complete T at its instantiation site.
class CElement;
class Toggle;
}  // namespace emc::gates

namespace emc::netlist {

/// What kind of thing an element is, as far as structural analysis is
/// concerned. State-holding kinds (C-element, toggle, endpoint)
/// legitimately sit on feedback cycles; pure combinational kinds on a
/// cycle are an oscillation hazard (lint rule C001).
enum class ElementKind {
  kComb,      ///< combinational gate (CombGate / FunctionGate)
  kCElement,  ///< Muller C-element (state-holding, completion logic)
  kToggle,    ///< TOGGLE element (state-holding divider)
  kEndpoint,  ///< behavioural endpoint: latch rank, controller, source/sink
  kOther,     ///< unknown element type — treated conservatively
};

const char* to_string(ElementKind k);

/// True when elements of kind `k` may legitimately hold state across
/// evaluations (and therefore break a combinational cycle).
bool is_state_holding(ElementKind k);

struct ElementInfo {
  std::string name;
  ElementKind kind = ElementKind::kOther;
};

struct WireInfo {
  std::string name;
  bool owned = true;        ///< created via wire() on this circuit
  bool env_driven = false;  ///< testbench/endpoint drives it via set()
  bool external = false;    ///< foreign net (port of another circuit)
};

/// A recorded req/ack handshake channel (lint rule H001/D001 input).
struct ChannelInfo {
  std::string req;
  std::string ack;
};

/// A build-site waiver for one lint finding: rule + exact subject. The
/// reason string is mandatory and surfaces in lint reports, so every
/// suppression is self-documenting (mirroring NOLINT comments).
struct Suppression {
  std::string rule;
  std::string subject;
  std::string reason;
};

/// One timing arc of the static timing model (emc::sta): a transition on
/// wire `from` propagates through element `via` and lands on wire `to`
/// after the element's delay. `load` is the switched capacitance driven
/// during that propagation in reference-inverter units (c_inv), i.e.
/// delay_stages * cap_factor — exactly the cload the dynamic Gate charges
/// per transition, so static and simulated delays agree by construction.
struct TimingArc {
  std::string from;
  std::string via;
  std::string to;
  double load = 1.0;
  double vth_offset = 0.0;
  double strength = 1.0;
};

/// A bundled-data timing constraint: the capture event on `trigger` (a
/// matched delay-line output) must arrive no earlier than min_ratio times
/// the settling of every `targets` wire (the single-rail datapath the
/// latch samples on that trigger). emc::sta sweeps this ratio over the
/// declared operating range — rule T001.
struct BundleInfo {
  std::string name;
  std::string trigger;
  std::vector<std::string> targets;
  double min_ratio = 1.0;
};

/// The Vdd interval a circuit claims to function over. Undeclared
/// circuits default to [Tech::vmin_operate, Tech::vdd_nominal]; figures
/// that sweep wider declare it so the static margin analysis covers what
/// the simulation will actually visit.
struct OperatingRange {
  double lo = 0.0;
  double hi = 0.0;
  bool declared = false;
};

/// Typed ownership of a heterogeneous circuit element: destruction runs
/// the real destructor through a virtual call.
class OwnedNode {
 public:
  virtual ~OwnedNode() = default;
};

template <typename T>
class TypedNode final : public OwnedNode {
 public:
  template <typename... Args>
  explicit TypedNode(Args&&... args) : value_(std::forward<Args>(args)...) {}

  T& value() { return value_; }

 private:
  T value_;
};

namespace detail {
/// Detects a `std::string name() const`-shaped accessor; elements
/// without one cannot be auto-registered (use note_element manually).
template <typename T, typename = void>
struct HasName : std::false_type {};
template <typename T>
struct HasName<T, std::void_t<decltype(std::declval<const T&>().name())>>
    : std::true_type {};

template <typename T>
constexpr ElementKind kind_of() {
  if constexpr (std::is_same_v<T, gates::CombGate> ||
                std::is_same_v<T, gates::FunctionGate>) {
    return ElementKind::kComb;
  } else if constexpr (std::is_same_v<T, gates::CElement>) {
    return ElementKind::kCElement;
  } else if constexpr (std::is_same_v<T, gates::Toggle>) {
    return ElementKind::kToggle;
  } else {
    return ElementKind::kOther;
  }
}
}  // namespace detail

class Circuit {
 public:
  Circuit(gates::Context& ctx, std::string name)
      : ctx_(&ctx), name_(std::move(name)) {}

  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  const std::string& name() const { return name_; }
  gates::Context& ctx() const { return *ctx_; }

  /// Create (and own) a wire named `<circuit>.<local>`.
  sim::Wire& wire(const std::string& local, bool initial = false) {
    wires_.push_back(std::make_unique<sim::Wire>(ctx_->kernel,
                                                 name_ + "." + local, initial));
    wire_infos_.push_back(WireInfo{wires_.back()->name(), true, false, false});
    return *wires_.back();
  }

  /// Create (and own) any gate-like object; elements exposing a name()
  /// are recorded in the typed element inventory automatically (kind
  /// derived from the concrete type). Connectivity edges must still be
  /// note_edge()'d — lint rule W003 flags elements where that was
  /// forgotten. Ownership is typed (OwnedNode), so elements destroy
  /// through their real destructors.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto owned = std::make_unique<TypedNode<T>>(std::forward<Args>(args)...);
    T& ref = owned->value();
    gates_.push_back(std::move(owned));
    if constexpr (detail::HasName<T>::value) {
      note_element(ref.name(), detail::kind_of<T>());
    }
    return ref;
  }

  /// Convenience: combinational gate with connectivity recording. Also
  /// records one timing arc per input using the same cell factors the
  /// gate's constructor charges (load = delay_stages * cap_factor), so
  /// circuits assembled through comb() get a static timing model for
  /// free.
  gates::CombGate& comb(const std::string& local, gates::Op op,
                        std::vector<sim::Wire*> inputs, sim::Wire& out,
                        double vth_offset = 0.0) {
    const std::string gname = name_ + "." + local;
    const gates::CellFactors f = gates::factors_for(op, inputs.size());
    for (auto* w : inputs) {
      edges_.emplace_back(w->name(), gname);
      timing_arcs_.push_back(TimingArc{w->name(), gname, out.name(),
                                       f.delay * f.cap, vth_offset, 1.0});
    }
    edges_.emplace_back(gname, out.name());
    return emplace<gates::CombGate>(*ctx_, gname, op, std::move(inputs), out,
                                    vth_offset);
  }

  /// Record an edge manually (for gates built via emplace<>).
  void note_edge(const std::string& from, const std::string& to) {
    edges_.emplace_back(from, to);
  }

  /// Record an element in the typed inventory. Idempotent per name (the
  /// first kind wins) — composites that describe themselves into a
  /// circuit can be re-described without duplicating entries.
  void note_element(const std::string& name, ElementKind kind) {
    for (const auto& e : elements_) {
      if (e.name == name) return;
    }
    elements_.push_back(ElementInfo{name, kind});
  }

  /// Record a wire this circuit references but does not own (a port of
  /// another circuit, or a composite's internal net). External wires are
  /// exempt from the linter's driver rules — their drivers live outside
  /// this circuit's scope.
  void note_external_wire(const std::string& name) {
    if (WireInfo* w = find_wire(name)) {
      (void)w;  // already inventoried (owned wins over external)
      return;
    }
    wire_infos_.push_back(WireInfo{name, false, false, true});
  }

  /// Mark a wire as environment-driven: the testbench (or a behavioural
  /// endpoint registered separately) moves it via set(), so the linter
  /// must not expect a gate driver (rule W001).
  void mark_env_driven(const sim::Wire& w) { mark_env_driven(w.name()); }
  void mark_env_driven(const std::string& name) {
    if (WireInfo* wi = find_wire(name)) {
      wi->env_driven = true;
      return;
    }
    wire_infos_.push_back(WireInfo{name, false, true, false});
  }

  /// Record a req/ack handshake channel (by wire name). Deduplicated;
  /// both sides of a channel may note it. Lint rules H001 (unpaired
  /// handshake) and D001 (structural deadlock) consume this inventory.
  void note_handshake(const std::string& req, const std::string& ack) {
    for (const auto& c : channels_) {
      if (c.req == req && c.ack == ack) return;
    }
    channels_.push_back(ChannelInfo{req, ack});
  }

  /// Waive one lint finding at the build site: `rule` (e.g. "C001") on
  /// the exact `subject` the finding names, with a mandatory reason that
  /// surfaces in reports. Deliberate oscillators (ring oscillators, the
  /// gated relaxation NAND) suppress C001 this way. A suppression that
  /// matches no finding is itself reported (rule S001), so waivers
  /// cannot silently outlive the defect they excused.
  void suppress(const std::string& rule, const std::string& subject,
                const std::string& reason) {
    suppressions_.push_back(Suppression{rule, subject, reason});
  }

  /// Record a timing arc manually (for gates built via emplace<>, or
  /// composites replaying their structure in describe_into hooks).
  /// `load` is in reference-inverter capacitance units:
  /// delay_stages * cap_factor of the element — the cload its dynamic
  /// twin hands to DelayModel::delay_seconds on every transition.
  void note_timing_arc(const std::string& from, const std::string& via,
                       const std::string& to, double load,
                       double vth_offset = 0.0, double strength = 1.0) {
    timing_arcs_.push_back(
        TimingArc{from, via, to, load, vth_offset, strength});
  }

  /// Record a bundled-data constraint for the static margin analysis
  /// (sta rule T001). Deduplicated by name.
  void note_bundle(BundleInfo b) {
    for (const auto& e : bundles_) {
      if (e.name == b.name) return;
    }
    bundles_.push_back(std::move(b));
  }

  /// Declare the Vdd interval this circuit is expected to function over
  /// (what its figure sweeps). Without a declaration the range defaults
  /// to [vmin_operate, vdd_nominal] of the context's technology.
  void declare_operating_range(double lo, double hi) {
    assert(lo > 0.0 && hi >= lo);
    range_ = OperatingRange{lo, hi, true};
  }

  /// The resolved operating range (declared, or the technology default).
  OperatingRange operating_range() const;

  const std::vector<std::pair<std::string, std::string>>& edges() const {
    return edges_;
  }
  const std::vector<WireInfo>& wire_infos() const { return wire_infos_; }
  const std::vector<ElementInfo>& elements() const { return elements_; }
  const std::vector<ChannelInfo>& channels() const { return channels_; }
  const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }
  const std::vector<TimingArc>& timing_arcs() const { return timing_arcs_; }
  const std::vector<BundleInfo>& bundles() const { return bundles_; }

 private:
  WireInfo* find_wire(const std::string& name) {
    for (auto& w : wire_infos_) {
      if (w.name == name) return &w;
    }
    return nullptr;
  }

  gates::Context* ctx_;
  std::string name_;
  std::vector<std::unique_ptr<sim::Wire>> wires_;
  std::vector<std::unique_ptr<OwnedNode>> gates_;
  std::vector<std::pair<std::string, std::string>> edges_;
  std::vector<WireInfo> wire_infos_;
  std::vector<ElementInfo> elements_;
  std::vector<ChannelInfo> channels_;
  std::vector<Suppression> suppressions_;
  std::vector<TimingArc> timing_arcs_;
  std::vector<BundleInfo> bundles_;
  OperatingRange range_{};
};

}  // namespace emc::netlist
