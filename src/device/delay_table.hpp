// Memoized EKV drive-current kernel (the table behind DelayModel).
//
// Every delay and current in the simulator reduces to one transcendental:
//
//     g(x) = ln^2(1 + exp(x / (2 n VT))),   x = Vdd - Vth_effective
//
// (DelayModel then scales by specific current, corner, strength and load:
// I = Is * corner * strength * g(x);  t = C * V / I). Because the
// threshold shift and the strength multiplier both factor *out* of g,
// one 1-D table in x serves every (vth-bucket, strength) combination
// exactly — there is no per-bucket grid to maintain and no bucket
// quantization error, only the interpolation error of g itself.
//
// The table samples g and its analytic derivative on a uniform grid of
// kStepV volts over [kXLo, kXHi] and evaluates with a monotone cubic
// Hermite (Fritsch–Carlson limited, though the limiter never engages for
// this convex monotone g). Accuracy contract: relative error vs the
// exact EKV expression is bounded by (h/(2nVT))^4/384 in the worst
// (sub-threshold, pure-exponential) regime — ~7e-11 at the default grid,
// asserted to a documented 0.1% bound in tests/device_test.cpp. Outside
// the grid the exact expression is used (exact-EKV fallback), so the
// table is a pure accelerator: it never changes the model's domain.
//
// Tables are immutable after construction and shared process-wide via
// shared_for(): g depends on the technology only through 2*n*VT, so all
// DelayModel instances of a sweep (thousands of kernels) reuse one
// ~55 KB table instead of rebuilding per scenario.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "device/tech.hpp"

namespace emc::device {

class DelayTable {
 public:
  /// Grid bounds in x = Vdd - Vth [V]. The operating range of every
  /// experiment (Vdd in [vmin_operate, vmax], Vth in [0.2, 0.6] incl.
  /// corner and mismatch shifts) maps well inside [-0.6, 1.1].
  static constexpr double kXLo = -0.60;
  static constexpr double kXHi = 1.10;
  /// Grid pitch [V]. 0.5 mV keeps the Hermite interpolation error ~1e-10
  /// relative — far inside the documented 0.1% contract.
  static constexpr double kStepV = 0.5e-3;

  explicit DelayTable(double two_n_vt);

  /// True when `x` falls on the precomputed grid (else callers get the
  /// exact-EKV fallback).
  bool covers(double x) const { return x >= kXLo && x <= kXHi; }

  /// Memoized g(x); exact-EKV fallback outside the grid.
  double soft_square(double x) const {
    if (!covers(x)) return soft_square_exact(x, two_n_vt_);
    const double f = (x - kXLo) * inv_step_;
    std::size_t i = static_cast<std::size_t>(f);
    if (i >= nodes_.size() - 1) i = nodes_.size() - 2;
    const double t = f - static_cast<double>(i);
    const Node& a = nodes_[i];
    const Node& b = nodes_[i + 1];
    const double t2 = t * t;
    const double t3 = t2 * t;
    return (2.0 * t3 - 3.0 * t2 + 1.0) * a.g +
           (t3 - 2.0 * t2 + t) * kStepV * a.d +
           (3.0 * t2 - 2.0 * t3) * b.g + (t3 - t2) * kStepV * b.d;
  }

  /// The exact EKV expression the table memoizes.
  static double soft_square_exact(double x, double two_n_vt) {
    const double u = x / two_n_vt;
    const double s = u > 30.0 ? u : std::log1p(std::exp(u));
    return s * s;
  }

  /// Process-wide table for `tech` (keyed by 2*n*VT — the only
  /// technology parameter g depends on). Thread-safe; sweeps hitting the
  /// same technology share one instance.
  static std::shared_ptr<const DelayTable> shared_for(const Tech& tech);

 private:
  struct Node {
    double g;  // g(x_i)
    double d;  // dg/dx at x_i (analytic, Fritsch–Carlson limited)
  };

  std::vector<Node> nodes_;
  double two_n_vt_;
  double inv_step_;
};

}  // namespace emc::device
