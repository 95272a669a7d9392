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
    case ElementKind::kOther: return "other";
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

void Circuit::record_gate(const std::string& gname, ElementKind kind,
                          const std::vector<sim::Wire*>& inputs,
                          const sim::Wire& out, double load,
                          double vth_offset) {
  for (const sim::Wire* w : inputs) {
    edges_.emplace_back(w->name(), gname);
    timing_arcs_.push_back(
        TimingArc{w->name(), gname, out.name(), load, vth_offset, 1.0});
  }
  edges_.emplace_back(gname, out.name());
  note_element(gname, kind);
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
  edges_.emplace_back(in.name(), gname);
  edges_.emplace_back(gname, dot.name());
  edges_.emplace_back(gname, blank.name());
  note_element(gname, ElementKind::kToggle);
  return own<gates::Toggle>(*ctx_, gname, in, dot, blank);
}

bool is_state_holding(ElementKind k) {
  switch (k) {
    case ElementKind::kComb:
      return false;
    case ElementKind::kCElement:
    case ElementKind::kToggle:
    case ElementKind::kEndpoint:
    case ElementKind::kOther:  // unknown: assume it may hold state
      return true;
  }
  return true;
}

}  // namespace emc::netlist
