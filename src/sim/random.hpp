// Seeded randomness for reproducible Monte-Carlo experiments.
//
// Every stochastic component (harvester bursts, Vth mismatch, metastability
// resolution) takes an Rng by reference so an experiment is fully
// determined by one seed printed in its report.
//
// For replicated (Monte-Carlo) runs the sequential-draw model is not
// enough: two elaborations that create the same devices in a different
// order must still give each device the same sample. derive_seed() turns
// a (seed, stream) pair into an independent starting state, so callers
// key one Rng per logical entity — Rng::keyed(trial_seed, instance_id)
// — instead of sharing one sequential stream whose draw order would leak
// elaboration order into the results.
//
// Generator. Rng is a counter-based generator in the style of Salmon et
// al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): its state is
// a 64-bit key plus a counter, and draw k is splitmix64(key + γ·k) with γ
// the golden-ratio increment. For Rng(seed) that is exactly Vigna's
// reference SplitMix64 sequence seeded with `seed`. Construction fills no
// table, so keying one Rng per device sample costs about as much as the
// two draws it makes, and the object is 32 bytes.
//
// Transforms, all owned here rather than by the standard library:
//   uniform()         top 53 bits of a draw × 2⁻⁵³, in [0, 1);
//   uniform(lo, hi)   lo + (hi − lo)·u;
//   index(n)          Lemire's multiply-shift with rejection (unbiased);
//   gaussian(mu, s)   Box–Muller on one pair of uniforms; the second
//                     normal of the pair is cached for the next call;
//   exponential_mean  −mean·log(1 − u).
//
// Portability. Integer and uniform draws are pure 64-bit integer
// arithmetic and bit-exact on any compiler and standard library. Normal
// and exponential draws additionally depend only on libm's log, sqrt, sin
// and cos — never on an implementation-defined <random> distribution.
#pragma once

#include <cmath>
#include <cstdint>

namespace emc::sim {

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function
/// (Steele et al.; the seed-spreading step of the splitmix64 generator).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-based stream derivation: an independent, well-mixed seed for
/// logical stream `stream` of the experiment seeded with `seed`. Pure —
/// the same (seed, stream) always maps to the same value, regardless of
/// how many other streams were derived before it.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ splitmix64(~stream));
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : key_(seed) {}

  /// Rng on the derived stream (trial_seed, stream_id) — the handle for
  /// per-instance Monte-Carlo draws whose results must not depend on
  /// elaboration order.
  static Rng keyed(std::uint64_t seed, std::uint64_t stream) {
    return Rng(derive_seed(seed, stream));
  }

  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n), n >= 1.
  std::uint64_t index(std::uint64_t n) {
    // The high word of draw·n is uniform over [0, n) once the 2⁶⁴ mod n
    // low words of the partial final bucket are redrawn. (0 − n) % n is
    // that count, computed only on the rare near miss.
    std::uint64_t x = next();
    std::uint64_t low = x * n;
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = next();
        low = x * n;
      }
    }
    return mulhi(x, n);
  }

  /// Gaussian with mean mu and standard deviation sigma.
  double gaussian(double mu, double sigma) {
    if (has_spare_) {
      has_spare_ = false;
      return mu + sigma * spare_;
    }
    // 1 − u lies in (0, 1], so the log is finite.
    const double r = std::sqrt(-2.0 * std::log(1.0 - uniform()));
    const double theta = 6.283185307179586 * uniform();
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return mu + sigma * (r * std::cos(theta));
  }

  /// Exponential with the given mean (not rate).
  double exponential_mean(double mean) {
    return -mean * std::log(1.0 - uniform());
  }

 private:
  std::uint64_t next() {
    return splitmix64(key_ + 0x9e3779b97f4a7c15ULL * counter_++);
  }

  /// High 64 bits of the 128-bit product a·b.
  static constexpr std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b >> 64);
  }

  std::uint64_t key_;
  std::uint64_t counter_ = 0;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace emc::sim
