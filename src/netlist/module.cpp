#include "netlist/module.hpp"

#include "gates/celement.hpp"
#include "gates/toggle.hpp"

namespace emc::netlist {

namespace {
template <typename T>
class TypedNode final : public OwnedNode {
 public:
  template <typename... Args>
  explicit TypedNode(Args&&... args) : value_(std::forward<Args>(args)...) {}

  T& value() { return value_; }

 private:
  T value_;
};
}  // namespace

const char* to_string(ElementKind k) {
  switch (k) {
    case ElementKind::kComb: return "comb";
    case ElementKind::kCElement: return "c-element";
    case ElementKind::kToggle: return "toggle";
    case ElementKind::kEndpoint: return "endpoint";
  }
  return "?";
}

OperatingRange Circuit::operating_range() const {
  if (range_.declared) return range_;
  const device::Tech& t = ctx_->model.tech();
  return OperatingRange{t.vmin_operate, t.vdd_nominal, false};
}

template <typename T, typename... Args>
T& Circuit::own(Args&&... args) {
  auto node = std::make_unique<TypedNode<T>>(std::forward<Args>(args)...);
  T& ref = node->value();
  gates_.push_back(std::move(node));
  return ref;
}

WireId Circuit::wire_id(const sim::Wire& w) {
  const auto [it, added] = wire_ids_.emplace(&w, wire_infos_.size());
  if (added) wire_infos_.push_back(WireInfo{&w, false, false});
  return it->second;
}

void Circuit::note_bundle(std::string name, const sim::Wire& trigger,
                          const std::vector<sim::Wire*>& targets,
                          double min_ratio) {
  BundleInfo b{std::move(name), wire_id(trigger), {}, min_ratio};
  for (const sim::Wire* t : targets) b.targets.push_back(wire_id(*t));
  bundles_.push_back(std::move(b));
}

void Circuit::record_gate(const std::string& gname, ElementKind kind,
                          const std::vector<sim::Wire*>& inputs,
                          const sim::Wire& out, double load,
                          double vth_offset) {
  const ElementId e = note_element(gname, kind);
  const WireId to = wire_id(out);
  for (const sim::Wire* w : inputs) {
    const WireId from = wire_id(*w);
    edges_.push_back(Edge{from, e, false});
    timing_arcs_.push_back(TimingArc{from, e, to, load, vth_offset});
  }
  edges_.push_back(Edge{to, e, true});
}

gates::CombGate& Circuit::comb(const std::string& local, gates::Op op,
                               std::vector<sim::Wire*> inputs, sim::Wire& out,
                               double vth_offset) {
  const std::string gname = name_ + "." + local;
  const gates::CellFactors f = gates::factors_for(op, inputs.size());
  record_gate(gname, ElementKind::kComb, inputs, out, f.delay * f.cap,
              vth_offset);
  return own<gates::CombGate>(*ctx_, gname, op, std::move(inputs), out,
                              vth_offset);
}

gates::FunctionGate& Circuit::function_gate(const std::string& local,
                                            gates::FunctionGate::Fn fn,
                                            std::vector<sim::Wire*> inputs,
                                            sim::Wire& out,
                                            double delay_stages,
                                            double cap_factor,
                                            double vth_offset) {
  const std::string gname = name_ + "." + local;
  record_gate(gname, ElementKind::kComb, inputs, out,
              delay_stages * cap_factor, vth_offset);
  return own<gates::FunctionGate>(*ctx_, gname, std::move(fn),
                                  std::move(inputs), out, delay_stages,
                                  cap_factor, vth_offset);
}

gates::CElement& Circuit::celement(const std::string& local,
                                   std::vector<sim::Wire*> inputs,
                                   sim::Wire& out, double vth_offset) {
  const std::string gname = name_ + "." + local;
  record_gate(gname, ElementKind::kCElement, inputs, out,
              gates::CElement::delay_stages() *
                  gates::CElement::cap_factor(inputs.size()),
              vth_offset);
  return own<gates::CElement>(*ctx_, gname, std::move(inputs), out,
                              vth_offset);
}

gates::Toggle& Circuit::toggle(const std::string& local, sim::Wire& in,
                               sim::Wire& dot, sim::Wire& blank) {
  const std::string gname = name_ + "." + local;
  const ElementId e = note_element(gname, ElementKind::kToggle);
  note_edge(in, e);
  note_edge(e, dot);
  note_edge(e, blank);
  return own<gates::Toggle>(*ctx_, gname, in, dot, blank);
}

}  // namespace emc::netlist
