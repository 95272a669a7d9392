#include "netlist/module.hpp"

namespace emc::netlist {

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
