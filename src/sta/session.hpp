// Timing session: the lint::Session scratch stack, rerouted through the
// static timing pipeline.
//
// Figures register ONE lint hook; whether it performs netlist lint or
// static timing analysis depends on the Session subclass the driver
// hands it. check(Circuit) here runs sta::analyze instead of
// lint::analyze and accumulates the margin curves alongside the
// per-subject reports, so the same hook body (`s.check(thing.circuit())`)
// serves the `emc_repro lint` and `sta` verbs and both run gates without
// duplication.
//
// Petri-net checks have no timing surface — check(net, label) records a
// legitimately clean empty report so hooks that lint a scheduler
// abstraction still pass through a timing session unchanged.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lint/session.hpp"
#include "sta/sta.hpp"

namespace emc::sta {

class Session : public lint::Session {
 public:
  void check(const netlist::Circuit& c) override;
  void check(const sched::EnergyPetriNet& net,
             const std::string& label) override;

  /// Any checked circuit recorded bundles without a timing model behind
  /// them (Analysis::vacuous) — the CLI maps this to exit 2, like a
  /// missing lint model: absence of evidence is not timing closure.
  bool vacuous() const { return !vacuous_subjects_.empty(); }
  const std::vector<std::string>& vacuous_subjects() const {
    return vacuous_subjects_;
  }

  /// Timing arcs seen across every checked circuit.
  std::size_t arc_count() const { return arc_count_; }

  /// Margin-vs-Vdd rows of every bundle of every checked circuit, paired
  /// with the owning circuit's name.
  const std::vector<std::pair<std::string, MarginPoint>>& margin_curve()
      const {
    return curve_;
  }

  /// The margin curves as CSV (circuit,bundle,vdd,corner,trigger_s,
  /// datapath_s,ratio,limit,ok); `emc_repro sta --csv` writes these rows
  /// keyed by figure.
  std::string margin_csv() const;

 private:
  std::vector<std::string> vacuous_subjects_;
  std::size_t arc_count_ = 0;
  std::vector<std::pair<std::string, MarginPoint>> curve_;
};

}  // namespace emc::sta
