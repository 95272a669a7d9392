#include "power/qos.hpp"

#include <cmath>
#include <limits>

namespace emc::power {

std::optional<double> QosCurve::delivery_threshold(double min_qos) const {
  std::optional<double> best;
  for (const auto& p : points_) {
    if (p.qos >= min_qos && p.error_rate < 0.01) {
      if (!best || p.vdd < *best) best = p.vdd;
    }
  }
  return best;
}

QosPoint QosCurve::at(double vdd) const {
  QosPoint nearest;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    const double d = std::fabs(p.vdd - vdd);
    if (d < best) {
      best = d;
      nearest = p;
    }
  }
  return nearest;
}

std::optional<double> efficiency_crossover(const QosCurve& a,
                                           const QosCurve& b) {
  // Assumes both curves were swept over the same Vdd grid.
  for (const auto& pa : a.points()) {
    const QosPoint pb = b.at(pa.vdd);
    if (std::fabs(pb.vdd - pa.vdd) > 1e-6) continue;
    if (pb.qos_per_watt() > pa.qos_per_watt() && pb.error_rate < 0.01) {
      return pa.vdd;
    }
  }
  return std::nullopt;
}

QosCurve hybrid_envelope(const QosCurve& a, const QosCurve& b) {
  QosCurve h;
  for (const auto& pa : a.points()) {
    const QosPoint pb = b.at(pa.vdd);
    // Correctness gates eligibility; among correct options take the
    // higher QoS (mode switching is assumed cheap relative to a window).
    const bool a_ok = pa.error_rate < 0.01;
    const bool b_ok = std::fabs(pb.vdd - pa.vdd) < 1e-6 &&
                      pb.error_rate < 0.01;
    if (a_ok && (!b_ok || pa.qos >= pb.qos)) {
      h.add(pa);
    } else if (b_ok) {
      h.add(pb);
    } else {
      QosPoint dead;
      dead.vdd = pa.vdd;
      h.add(dead);
    }
  }
  return h;
}

}  // namespace emc::power
