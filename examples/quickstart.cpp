// Quickstart: build a self-timed circuit, power it three different ways,
// and watch the supply modulate the computation.
//
//   $ ./quickstart
//
// Walks through the library's experiment loop: describe the context as
// data (exp::ContextConfig — tech + supply + meter), elaborate it onto a
// fresh kernel per scenario, and dispatch the scenarios through the
// exp::Workbench — the same subsystem the figure benches use — so they
// run in parallel when EMC_SWEEP_THREADS allows. A 4-bit ripple counter
// (the paper's Fig. 9 element) runs from a battery, from the Fig. 4 AC
// supply, and from a charged capacitor that it drains to exhaustion.
#include <cstdio>
#include <string>
#include <vector>

#include "async/counter.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"

using namespace emc;

namespace {

// Shared harness: run the counter from the configured supply for
// `horizon`, then report (kernel, supply and meter all come from the
// elaborated experiment).
void run_counter(const exp::ContextConfig& cfg, sim::Time horizon,
                 const std::string& label, exp::Recorder& rec) {
  auto ex = cfg.build();
  async::ToggleRippleCounter counter(ex.ctx(), "ctr", 4);
  counter.start();
  ex.kernel().run_until(horizon);
  counter.stop();
  ex.kernel().run_until(ex.kernel().now() + sim::us(2));
  rec.row()
      .set("supply", label)
      .set("oscillator_edges", counter.transitions_served())
      .set("energy_pJ", ex.meter()->total_energy() * 1e12, 4)
      .set("residual_V", ex.supply().voltage(), 3);
  rec.add_stats(ex.kernel().stats());
}

}  // namespace

int main() {
  std::printf("== energy-modulated computing: quickstart ==\n\n");
  std::printf(
      "One self-timed ripple counter, three supplies. Each scenario is an\n"
      "independent kernel run through the exp::Workbench.\n\n");

  // The "supply" parameter selects the variant the body elaborates; each
  // variant carries its own display label, so reordering the axis cannot
  // mislabel results.
  exp::Workbench wb("quickstart");
  wb.grid().over("supply", std::vector<std::string>{"battery", "ac", "cap"});
  wb.columns({"supply", "oscillator_edges", "energy_pJ", "residual_V"});

  const auto& report = wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
    const std::string which = p.get<std::string>("supply");
    if (which == "battery") {
      // Full speed: the counter free-runs for 1 us.
      run_counter(exp::ContextConfig::battery(1.0), sim::us(1),
                  "battery 1.0 V", rec);
    } else if (which == "ac") {
      // The paper's AC supply: the counter stalls in the troughs and
      // resumes — slower, never wrong.
      run_counter(exp::ContextConfig::with(exp::SupplyConfig::ac(0.2, 0.1,
                                                                 1e6)),
                  sim::us(10), "AC 200+/-100 mV @ 1 MHz", rec);
    } else {
      // A charged capacitor: the charge quantum, not a clock, decides
      // how much is computed.
      run_counter(exp::ContextConfig::with(
                      exp::SupplyConfig::storage_cap(50e-12, 0.9)),
                  sim::ms(1), "cap 50 pF @ 0.9 V", rec);
    }
  });

  report.table.print();
  report.print_summary();
  std::printf(
      "\nNote the cap scenario: it ran to exhaustion — the energy quantum "
      "decided\nhow much was computed.\n");
  std::printf("\nNext: examples/voltage_sensor_demo, "
              "examples/harvester_sensor_node, examples/energy_token_demo\n");
  return 0;
}
