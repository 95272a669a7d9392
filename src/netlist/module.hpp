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
// inventory keyed by dense ids — wires (their sim::Wire plus origin
// flags; a wire used here but created elsewhere is external), elements
// (a name and an ElementKind), edges (an element reads or drives a
// wire), timing arcs, handshake channels and rule suppressions, which
// emc::lint and emc::sta read and report in name order. The gate
// builders (comb, function_gate, celement, toggle) are the only way a
// gate enters a circuit; each records the element, its edges and its
// timing arcs from the numbers it hands the gate's constructor.
// note_element / note_edge remain for behavioural endpoints (latch ranks,
// controllers, handshake actors); lint rule W003 fails loudly on an
// endpoint declared with zero recorded edges.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gates/combinational.hpp"
#include "gates/gate.hpp"
#include "sim/signal.hpp"

namespace emc::gates {
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
};

const char* to_string(ElementKind k);

/// True when elements of kind `k` may legitimately hold state across
/// evaluations (and therefore break a combinational cycle).
inline bool is_state_holding(ElementKind k) { return k != ElementKind::kComb; }

/// Dense per-circuit indices into Circuit::wire_infos() and
/// Circuit::elements(), in recording order.
using WireId = std::size_t;
using ElementId = std::size_t;

struct ElementInfo {
  std::string name;
  ElementKind kind;
};

struct WireInfo {
  const sim::Wire* wire;  ///< holds the name; outlives every analysis
  bool owned;             ///< created via wire() on this circuit
  bool env_driven;        ///< testbench/endpoint drives it via set()

  const std::string& name() const { return wire->name(); }
};

/// One recorded edge: `element` drives `wire` (`drive`) or reads it.
struct Edge {
  WireId wire;
  ElementId element;
  bool drive;
};

/// A recorded req/ack handshake channel (lint rule H001/D001 input).
struct ChannelInfo {
  WireId req;
  WireId ack;
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
/// delay_stages * cap_factor — the gate builders record it from the
/// factors they hand the gate's constructor, so static and simulated
/// delays agree by construction.
struct TimingArc {
  WireId from;
  ElementId via;
  WireId to;
  double load = 1.0;
  double vth_offset = 0.0;
};

/// A bundled-data timing constraint: the capture event on `trigger` (a
/// matched delay-line output) must arrive no earlier than min_ratio times
/// the settling of every `targets` wire (the single-rail datapath the
/// latch samples on that trigger). emc::sta sweeps this ratio over the
/// declared operating range — rule T001.
struct BundleInfo {
  std::string name;
  WireId trigger;
  std::vector<WireId> targets;
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
    sim::Wire& w = *wires_.back();
    wire_ids_.emplace(&w, wire_infos_.size());
    wire_infos_.push_back(WireInfo{&w, true, false});
    return w;
  }

  /// Combinational gate with the cell factors of `op` at its fanin.
  /// Like every builder below, it records the element, one edge per
  /// input plus the output edge, and one timing arc per input whose load
  /// (delay_stages * cap_factor) and Vth are the numbers the gate's
  /// constructor charges.
  gates::CombGate& comb(const std::string& local, gates::Op op,
                        std::vector<sim::Wire*> inputs, sim::Wire& out,
                        double vth_offset = 0.0);

  /// Arbitrary truth-function gate with explicit delay/capacitance
  /// factors (a carry chain's depth, a stacked datapath's Vth).
  gates::FunctionGate& function_gate(const std::string& local,
                                     gates::FunctionGate::Fn fn,
                                     std::vector<sim::Wire*> inputs,
                                     sim::Wire& out, double delay_stages,
                                     double cap_factor,
                                     double vth_offset = 0.0);

  /// Muller C-element (CElement::delay_stages() * cap_factor(fanin)).
  gates::CElement& celement(const std::string& local,
                            std::vector<sim::Wire*> inputs, sim::Wire& out,
                            double vth_offset = 0.0);

  /// TOGGLE element: edges in -> T -> {dot, blank}, no timing arcs (its
  /// outputs alternate, so no single in->out delay describes it).
  gates::Toggle& toggle(const std::string& local, sim::Wire& in,
                        sim::Wire& dot, sim::Wire& blank);

  /// Declare a behavioural endpoint (or any non-gate element) in the
  /// typed inventory; its edges are recorded with note_edge.
  ElementId note_element(std::string name, ElementKind kind) {
    elements_.push_back(ElementInfo{std::move(name), kind});
    return elements_.size() - 1;
  }

  /// Record an edge of a behavioural endpoint (a latch rank, controller
  /// or handshake actor that is not a gate and has no builder): element
  /// `e`, an id note_element returned on this circuit, reads `from` or
  /// drives `to`.
  void note_edge(const sim::Wire& from, ElementId e) {
    assert(e < elements_.size());
    edges_.push_back(Edge{wire_id(from), e, false});
  }
  void note_edge(ElementId e, const sim::Wire& to) {
    assert(e < elements_.size());
    edges_.push_back(Edge{wire_id(to), e, true});
  }

  /// Mark a wire as environment-driven: the testbench (or a behavioural
  /// endpoint registered separately) moves it via set(), so the linter
  /// must not expect a gate driver (rule W001).
  void mark_env_driven(const sim::Wire& w) {
    wire_infos_[wire_id(w)].env_driven = true;
  }

  /// Record a req/ack handshake channel. Deduplicated; both sides of a
  /// channel may note it. Lint rules H001 (unpaired handshake) and D001
  /// (structural deadlock) consume this inventory.
  void note_handshake(const sim::Wire& req, const sim::Wire& ack) {
    const ChannelInfo ch{wire_id(req), wire_id(ack)};
    for (const auto& c : channels_) {
      if (c.req == ch.req && c.ack == ch.ack) return;
    }
    channels_.push_back(ch);
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

  /// Record a bundled-data constraint for the static margin analysis
  /// (sta rule T001): `trigger` must settle after every `targets` wire.
  void note_bundle(std::string name, const sim::Wire& trigger,
                   const std::vector<sim::Wire*>& targets,
                   double min_ratio = 1.0);

  /// Declare the Vdd interval this circuit is expected to function over
  /// (what its figure sweeps). Without a declaration the range defaults
  /// to [vmin_operate, vdd_nominal] of the context's technology.
  void declare_operating_range(double lo, double hi) {
    assert(lo > 0.0 && hi >= lo);
    range_ = OperatingRange{lo, hi, true};
  }

  /// The resolved operating range (declared, or the technology default).
  OperatingRange operating_range() const;

  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<WireInfo>& wire_infos() const { return wire_infos_; }
  const std::vector<ElementInfo>& elements() const { return elements_; }
  const std::vector<ChannelInfo>& channels() const { return channels_; }
  const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }
  const std::vector<TimingArc>& timing_arcs() const { return timing_arcs_; }
  const std::vector<BundleInfo>& bundles() const { return bundles_; }

 private:
  /// Inventory one single-output gate: element `gname` of `kind`, edges
  /// input -> gate -> out, and one timing arc per input.
  void record_gate(const std::string& gname, ElementKind kind,
                   const std::vector<sim::Wire*>& inputs,
                   const sim::Wire& out, double load, double vth_offset);

  /// Construct and own an element (one allocation, typed destruction).
  template <typename T, typename... Args>
  T& own(Args&&... args);

  /// The id of `w`, recording it as external if this circuit did not
  /// create it and has not seen it yet.
  WireId wire_id(const sim::Wire& w);

  gates::Context* ctx_;
  std::string name_;
  std::vector<std::unique_ptr<sim::Wire>> wires_;
  std::vector<std::unique_ptr<OwnedNode>> gates_;
  std::vector<Edge> edges_;
  std::vector<WireInfo> wire_infos_;
  std::unordered_map<const sim::Wire*, WireId> wire_ids_;
  std::vector<ElementInfo> elements_;
  std::vector<ChannelInfo> channels_;
  std::vector<Suppression> suppressions_;
  std::vector<TimingArc> timing_arcs_;
  std::vector<BundleInfo> bundles_;
  OperatingRange range_{};
};

}  // namespace emc::netlist
