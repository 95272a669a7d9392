// Quality-of-service metrics and QoS-vs-Vdd curves (Fig. 2).
//
// QoS here is what the paper plots: useful, *correct* work per unit time,
// optionally normalized per watt. A QosCurve holds (Vdd, QoS, power)
// points for one design; the Fig. 2 analysis compares curves to find
// each design's delivery threshold, the efficiency crossover and the
// hybrid envelope.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace emc::power {

struct QosPoint {
  double vdd = 0.0;
  double qos = 0.0;      ///< correct ops/s
  double power_w = 0.0;  ///< total power at this Vdd
  double error_rate = 0.0;

  double qos_per_watt() const { return power_w > 0.0 ? qos / power_w : 0.0; }
};

class QosCurve {
 public:
  void add(QosPoint p) { points_.push_back(p); }
  const std::vector<QosPoint>& points() const { return points_; }

  /// Lowest Vdd at which the design delivers at least `min_qos` correct
  /// ops/s (the paper: "Design 1 starts to deliver the sought QoS at a
  /// very low Vdd, where Design 2 cannot deliver at all").
  std::optional<double> delivery_threshold(double min_qos) const;

  /// QoS at the point nearest to `vdd`.
  QosPoint at(double vdd) const;

 private:
  std::vector<QosPoint> points_;
};

/// First Vdd (scanning upward) where `b` beats `a` in QoS per watt — the
/// Fig. 2 efficiency crossover between Designs 1 and 2.
std::optional<double> efficiency_crossover(const QosCurve& a,
                                           const QosCurve& b);

/// Pointwise best-of-both curve (the hybrid design the paper recommends).
QosCurve hybrid_envelope(const QosCurve& a, const QosCurve& b);

}  // namespace emc::power
