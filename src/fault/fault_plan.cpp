#include "fault/fault_plan.hpp"

#include "async/handshake.hpp"
#include "fault/faultable_supply.hpp"
#include "sim/random.hpp"
#include "supply/harvester.hpp"

namespace emc::fault {

namespace {

sim::Time sat_add(sim::Time a, sim::Time b) {
  const sim::Time s = a + b;
  return s < a ? sim::kTimeMax : s;
}

}  // namespace

FaultSpec& FaultPlan::push(FaultKind kind) {
  FaultSpec s;
  s.kind = kind;
  s.stream = specs_.size();
  specs_.push_back(std::move(s));
  return specs_.back();
}

FaultPlan& FaultPlan::brownouts(double rate_hz, double mean_duration_s,
                                double residual_scale) {
  FaultSpec& s = push(FaultKind::kSupplyBrownout);
  s.rate_hz = rate_hz;
  s.mean_duration_s = mean_duration_s;
  s.scale = residual_scale;
  return *this;
}

FaultPlan& FaultPlan::harvester_blackouts(double rate_hz,
                                          double mean_duration_s) {
  FaultSpec& s = push(FaultKind::kHarvesterBlackout);
  s.rate_hz = rate_hz;
  s.mean_duration_s = mean_duration_s;
  return *this;
}

FaultPlan& FaultPlan::handshake_stalls(double rate_hz,
                                       double mean_duration_s) {
  FaultSpec& s = push(FaultKind::kHandshakeStall);
  s.rate_hz = rate_hz;
  s.mean_duration_s = mean_duration_s;
  return *this;
}

std::vector<Window> FaultPlan::windows_for(const FaultSpec& spec) const {
  std::vector<Window> ws;
  if (spec.rate_hz <= 0.0 || horizon_ == 0) return ws;
  sim::Rng rng = sim::Rng::keyed(seed_, spec.stream * 2);
  const double mean_gap_s = 1.0 / spec.rate_hz;
  sim::Time t = 0;
  for (;;) {
    const sim::Time gap =
        sim::from_seconds(rng.exponential_mean(mean_gap_s));
    const sim::Time start = sat_add(t, gap);
    if (start >= horizon_) break;
    sim::Time dur = 0;
    if (spec.mean_duration_s > 0.0) {
      dur = sim::from_seconds(rng.exponential_mean(spec.mean_duration_s));
      if (dur == 0) dur = 1;  // a windowed fault spans at least one tick
    }
    ws.push_back(Window{start, dur});
    t = sat_add(start, dur);
    if (t >= horizon_) break;
  }
  return ws;
}

FaultReport FaultPlan::elaborate(sim::Kernel& kernel,
                                 const Targets& targets) const {
  FaultReport rep;
  // Schedule a begin/end pair for one window; a permanent window (an
  // end beyond the time axis) gets no end.
  const auto schedule_window = [&](const Window& w, sim::Action begin,
                                   sim::Action end) {
    kernel.schedule_at(w.start, std::move(begin));
    ++rep.scheduled_events;
    const sim::Time end_t = sat_add(w.start, w.duration);
    if (end_t != sim::kTimeMax) {
      kernel.schedule_at(end_t, std::move(end));
      ++rep.scheduled_events;
    }
    ++rep.windows;
  };

  for (const FaultSpec& spec : specs_) {
    const std::vector<Window> ws = windows_for(spec);
    if (ws.empty()) continue;
    switch (spec.kind) {
      case FaultKind::kSupplyBrownout: {
        FaultableSupply* s = targets.supply;
        if (s == nullptr) break;
        for (const Window& w : ws) {
          const double scale = spec.scale;
          schedule_window(
              w, [s, scale] { s->begin_fault(scale); },
              [s, scale] { s->end_fault(scale); });
        }
        break;
      }
      case FaultKind::kHarvesterBlackout: {
        supply::Harvester* h = targets.harvester;
        if (h == nullptr) break;
        for (const Window& w : ws) {
          schedule_window(
              w, [h] { h->begin_blackout(); }, [h] { h->end_blackout(); });
        }
        break;
      }
      case FaultKind::kHandshakeStall: {
        if (targets.sinks.empty()) break;
        // Target picks draw from the spec's companion stream, consumed
        // in window order, so the schedule stays pure in (seed, stream).
        sim::Rng payload = sim::Rng::keyed(seed_, spec.stream * 2 + 1);
        for (const Window& w : ws) {
          async::HandshakeSink* k =
              targets.sinks[payload.index(targets.sinks.size())];
          schedule_window(w, [k] { k->stall(); }, [k] { k->resume(); });
        }
        break;
      }
    }
  }
  return rep;
}

}  // namespace emc::fault
