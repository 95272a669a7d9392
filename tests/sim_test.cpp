// Kernel, event queue, wire and trace unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <utility>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace emc::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(kPicosecond, 1000u);
  EXPECT_EQ(ns(1), 1000u * 1000u);
  EXPECT_EQ(us(1), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1e-12), kPicosecond);
  EXPECT_EQ(from_seconds(0.0), 0u);
  EXPECT_EQ(from_seconds(-1.0), 0u);
  EXPECT_EQ(from_seconds(1e30), kTimeMax);
}

TEST(Time, FromSecondsRoundsHalfAwayFromZero) {
  // Below 2^63 ticks from_seconds agrees with std::llround: ties away
  // from zero, the largest double below a tie, both sides of 2^52, and
  // delays over 12 decades. Above 2^63, where llround's long long
  // overflows, it still converts exactly up to the saturation point.
  const auto llround_ticks = [](double s) {
    return static_cast<Time>(std::llround(s * 1e15));
  };
  for (double ticks : {0.5, 1.5, 2.5, 0.49999999999999994, 1e6 + 0.5,
                       0x1p52 - 0.5, 0x1p52, 0x1p52 + 2.0, 1e18 + 0.5}) {
    const double s = ticks * 1e-15;
    EXPECT_EQ(from_seconds(s), llround_ticks(s)) << "ticks " << ticks;
  }
  Rng rng = Rng::keyed(25, 0);
  for (int i = 0; i < 100000; ++i) {
    const double s = rng.uniform() * std::pow(10.0, -3 - i % 13);
    ASSERT_EQ(from_seconds(s), llround_ticks(s)) << "s " << s;
  }
  EXPECT_EQ(from_seconds(1e4), 10'000'000'000'000'000'000u);
  EXPECT_EQ(from_seconds(0x1p63 * 1e-15), Time{1} << 63);
  EXPECT_EQ(from_seconds(0x1.fffffffffffffp63 * 1e-15),
            static_cast<Time>(0x1.fffffffffffffp63));
}

/// Pops the earliest event, runs it and returns its time.
Time pop_and_run(EventQueue& q) {
  Time t = 0;
  Action action;
  EXPECT_TRUE(q.pop_due(kTimeMax, t, action));
  action();
  return t;
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) pop_and_run(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) pop_and_run(q);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PeakLiveTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(10 + i, [] {});
  pop_and_run(q);
  pop_and_run(q);
  q.schedule(50, [] {});
  EXPECT_EQ(q.peak_live(), 5u);
  EXPECT_EQ(q.total_scheduled(), 6u);
}

TEST(EventQueue, DrainThenRescheduleReusesTheStructure) {
  EventQueue q;
  // A wide, scrambled spread of timestamps (64-bit LCG), drained fully.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    q.schedule(1 + (x >> 33) % 1'000'000, [] {});
  }
  Time prev = 0;
  while (!q.empty()) {
    const Time t = pop_and_run(q);
    EXPECT_GE(t, prev);
    prev = t;
  }
  // After a full drain, timestamps earlier than the last pop are legal
  // again and pop in order.
  std::vector<int> order;
  q.schedule(3, [&order] { order.push_back(3); });
  q.schedule(1, [&order] { order.push_back(1); });
  q.schedule(2, [&order] { order.push_back(2); });
  while (!q.empty()) pop_and_run(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Differential test of the replace-top dispatch: a random mix of every
// EventQueue operation, checked against a reference that orders pending
// events by (t, seq). After a pop the root is left vacated until the
// next schedule() fills it; the mix makes every other operation meet
// that pending hole too. Timestamps come from a narrow window, so most
// comparisons are FIFO tie-breaks.
TEST(EventQueue, MatchesReferenceOrderUnderRandomInterleaving) {
  struct Harness {
    EventQueue q;
    Rng rng{2026};
    // Pending events in (t, schedule order); the tag is the schedule order.
    std::set<std::pair<Time, std::uint64_t>> ref;
    std::uint64_t next_tag = 0;
    Time now = 0;
    std::uint64_t fired = 0;
    std::uint64_t expected_tag = 0;

    bool chance(std::uint64_t pct) { return rng.index(100) < pct; }

    void schedule() {
      const Time t = now + rng.index(4);
      const std::uint64_t tag = next_tag++;
      q.schedule(t, [this, tag] { fire(tag); });
      ref.emplace(t, tag);
    }

    void check_size() const {
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
    }

    void check_next_time() const {
      ASSERT_EQ(q.next_time(), ref.empty() ? kTimeMax : ref.begin()->first);
    }

    // The fired action: checks it is the reference's earliest event,
    // then schedules from inside the dispatch (the replace-top path).
    void fire(std::uint64_t tag) {
      ASSERT_EQ(tag, expected_tag);
      ++fired;
      // 0..2 follow-ups, fewer once the queue is deep: the depth hovers
      // around 64 entries.
      const std::uint64_t n = rng.index(ref.size() < 64 ? 3 : 2);
      for (std::uint64_t i = 0; i < n; ++i) schedule();
    }

    void pop() {
      if (ref.empty()) {
        Time t = 0;
        Action a;
        ASSERT_FALSE(q.pop_due(kTimeMax, t, a));
        return;
      }
      const auto head = ref.begin();
      const auto [t_expect, tag] = *head;
      if (t_expect > now && chance(10)) {
        // Not yet due: pop_due must leave the queue alone.
        Time t = 0;
        Action a;
        ASSERT_FALSE(q.pop_due(t_expect - 1, t, a));
        check_size();
        return;
      }
      ref.erase(head);
      expected_tag = tag;
      Time t = 0;
      Action action;
      ASSERT_TRUE(q.pop_due(kTimeMax, t, action));
      ASSERT_EQ(t, t_expect);
      now = t;
      if (chance(30)) {
        // Closes the pending hole; must not disturb anything.
        check_next_time();
        check_size();
      }
      action();
    }
  };

  Harness h;
  for (int i = 0; i < 8; ++i) h.schedule();
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t op = h.rng.index(100);
    if (op < 45) {
      h.pop();
    } else if (op < 60) {
      h.schedule();
    } else if (op < 95) {
      h.check_next_time();
    } else if (h.ref.size() < 32) {
      // Refill so the heap keeps some depth.
      for (int i = 0; i < 48; ++i) h.schedule();
    }
    if (::testing::Test::HasFatalFailure()) return;
    h.check_size();
  }
  // Drain: whatever is left pops in reference order.
  while (!h.ref.empty() && !::testing::Test::HasFatalFailure()) h.pop();
  EXPECT_TRUE(h.q.empty());
  EXPECT_GT(h.fired, 50000u);
}

TEST(Action, InlineAndHeapCapturesBothWork) {
  int hits = 0;
  Action small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  // Oversized capture spills to the heap transparently.
  std::vector<double> big(64, 1.5);
  Action large([&hits, big] { hits += static_cast<int>(big.size()); });
  Action moved = std::move(large);
  EXPECT_FALSE(static_cast<bool>(large));
  moved();
  EXPECT_EQ(hits, 65);
}

TEST(Kernel, AdvancesTimeMonotonically) {
  Kernel k;
  Time seen = 0;
  k.schedule(100, [&] { seen = k.now(); });
  k.schedule(50, [&] { EXPECT_EQ(k.now(), 50u); });
  k.run_until(kTimeMax);
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(k.stats().events_executed, 2u);
}

TEST(Kernel, RunUntilRespectsDeadlineInclusive) {
  Kernel k;
  int fired = 0;
  k.schedule(100, [&] { ++fired; });
  k.schedule(200, [&] { ++fired; });
  k.schedule(201, [&] { ++fired; });
  k.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(k.now(), 200u);
  k.run_until(kTimeMax);
  EXPECT_EQ(fired, 3);
}

TEST(Kernel, ZeroDelayRunsAfterCurrentCallback) {
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(1);
    k.schedule(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  k.run_until(kTimeMax);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Kernel, SchedulePastClampsToNow) {
  Kernel k;
  k.schedule(100, [&] {
    k.schedule_at(10, [&] { EXPECT_EQ(k.now(), 100u); });
  });
  k.run_until(kTimeMax);
}

TEST(Kernel, BudgetSpentWithNothingDueIsNotExhaustion) {
  // The budget trips only when an event inside the horizon is still
  // waiting: spending it on the last event, or with the next event past
  // the horizon, is a normal stop.
  Kernel k;
  for (Time t : {1, 2, 3}) k.schedule(t, [] {});
  const RunVerdict drained = k.run_guarded({kTimeMax, 3});
  EXPECT_EQ(drained.events, 3u);
  EXPECT_EQ(drained.status, RunStatus::kCompleted);

  k.schedule(1, [] {});
  k.schedule(100, [] {});
  const RunVerdict horizon = k.run_guarded({50, 1});
  EXPECT_EQ(horizon.events, 1u);
  EXPECT_EQ(horizon.status, RunStatus::kCompleted);
  EXPECT_EQ(k.now(), 50u);  // the clock still advances to the horizon
}

TEST(Kernel, StatsSnapshotReportsExecutionCounters) {
  Kernel k;
  for (int i = 0; i < 8; ++i) k.schedule(static_cast<Time>(i + 1), [] {});
  k.run_until(kTimeMax);
  const Kernel::Stats s = k.stats();
  EXPECT_EQ(s.events_executed, 8u);
  EXPECT_EQ(s.events_scheduled, 8u);
  EXPECT_EQ(s.peak_queue_depth, 8u);
  EXPECT_GE(s.slab_capacity, 1u);

  Kernel::Stats sum;
  sum += s;
  sum += s;
  EXPECT_EQ(sum.events_executed, 16u);
  EXPECT_EQ(sum.peak_queue_depth, 8u);
}

TEST(Signal, NotifiesOnChangeOnly) {
  Kernel k;
  Wire w(k, "w", false);
  int notified = 0;
  w.subscribe_raw(&notified,
                  [](void* ctx, const Wire&) { ++*static_cast<int*>(ctx); });
  w.set(false);  // no change
  EXPECT_EQ(notified, 0);
  w.set(true);
  EXPECT_EQ(notified, 1);
  w.set(true);  // no change
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(w.transitions(), 1u);
}

TEST(VcdWriter, RecordsChanges) {
  Kernel k;
  Wire a(k, "a", false);
  const std::string path = ::testing::TempDir() + "/emc_test.vcd";
  {
    VcdWriter vcd(path);
    vcd.add(a);
    k.schedule(10, [&] { a.set(true); });
    k.schedule(20, [&] { a.set(false); });
    k.run_until(kTimeMax);
    EXPECT_EQ(vcd.changes_recorded(), 2u);
    EXPECT_TRUE(vcd.finalize());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("$var wire 1"), std::string::npos);
  EXPECT_NE(contents.find("#10"), std::string::npos);
}

// /dev/full accepts the open and every buffered write; only the final
// flush fails, so both trace writers must close before reporting.
TEST(Trace, WritersReportAFullDevice) {
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Kernel k;
  Wire a(k, "a", false);
  VcdWriter vcd("/dev/full");
  vcd.add(a);
  k.schedule(10, [&] { a.set(true); });
  k.run_until(kTimeMax);
  EXPECT_FALSE(vcd.finalize());
  EXPECT_FALSE(vcd.finalize());  // a repeat call keeps the first result
  AnalogTrace trace("v");
  trace.sample(0, 1.0);
  EXPECT_FALSE(trace.write_csv("/dev/full"));
}

TEST(Rng, Reproducible) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// Integer and uniform draws are pure integer arithmetic, so these
// literals must hold bit-exactly on any compiler and standard library.
TEST(Rng, GoldenValues) {
  const double u42[8] = {0.74156487877182331, 0.1599103928769201,
                         0.27860113025513866, 0.34419071652363753,
                         0.038030168540246212, 0.86822807654653233,
                         0.21840519371218436, 0.80063187671350333};
  const std::uint64_t i42[8] = {741, 159, 278, 344, 38, 868, 218, 800};
  const double uk[8] = {0.73248428950295297, 0.68459857665624591,
                        0.90168732640485483, 0.58413750786820351,
                        0.042030709517214881, 0.11792748162493905,
                        0.52459900236953938, 0.40409199479109981};
  const std::uint64_t ik[8] = {732, 684, 901, 584, 42, 117, 524, 404};
  Rng a(42), b(42), c = Rng::keyed(2026, 7), d = Rng::keyed(2026, 7);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.uniform(), u42[i]);
    EXPECT_EQ(b.index(1000), i42[i]);
    EXPECT_EQ(c.uniform(), uk[i]);
    EXPECT_EQ(d.index(1000), ik[i]);
  }
  // Rng(seed) is the reference SplitMix64 sequence: its published test
  // vector for seed 1234567, through the top-53-bit uniform transform.
  Rng ref(1234567);
  for (std::uint64_t want : {6457827717110365317ULL, 3203168211198807973ULL,
                             9817491932198370423ULL}) {
    EXPECT_EQ(ref.uniform(), double(want >> 11) * 0x1.0p-53);
  }
}

constexpr int kDraws = 1000000;

// Kolmogorov–Smirnov distance between the sample and `cdf`.
template <class Cdf>
double ks_distance(std::vector<double> xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = double(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max({d, f - double(i) / n, double(i + 1) / n - f});
  }
  return d;
}

// Checks mean, variance and the KS distance (critical value at
// alpha = 0.001) of kDraws samples against the named distribution.
template <class Draw, class Cdf>
void expect_distribution(Draw draw, Cdf cdf, double mean, double var) {
  std::vector<double> xs(kDraws);
  double sum = 0.0, sum_sq = 0.0;
  for (auto& x : xs) {
    x = draw();
    sum += x;
    sum_sq += x * x;
  }
  const double m = sum / kDraws;
  const double v = sum_sq / kDraws - m * m;
  EXPECT_NEAR(m, mean, 5.0 * std::sqrt(var / kDraws));
  EXPECT_NEAR(v, var, 0.01 * var);
  EXPECT_LT(ks_distance(std::move(xs), cdf), 1.95 / std::sqrt(double(kDraws)));
}

TEST(Rng, UniformMomentsAndKs) {
  Rng rng(101);
  expect_distribution([&] { return rng.uniform(); },
                      [](double x) { return x; }, 0.5, 1.0 / 12.0);
  Rng ranged(102);
  expect_distribution([&] { return ranged.uniform(-1.0, 3.0); },
                      [](double x) { return (x + 1.0) / 4.0; }, 1.0,
                      16.0 / 12.0);
}

TEST(Rng, GaussianMomentsAndKs) {
  Rng rng(103);
  expect_distribution(
      [&] { return rng.gaussian(1.0, 2.0); },
      [](double x) { return 0.5 * std::erfc(-(x - 1.0) / (2.0 * std::sqrt(2.0))); },
      1.0, 4.0);
}

TEST(Rng, ExponentialMomentsAndKs) {
  Rng rng(104);
  expect_distribution([&] { return rng.exponential_mean(2.0); },
                      [](double x) { return 1.0 - std::exp(-x / 2.0); }, 2.0,
                      4.0);
}

TEST(Rng, IndexIsUnbiased) {
  // Chi-square against uniform counts; thresholds are the 0.999
  // quantiles for n - 1 degrees of freedom.
  const std::pair<std::uint64_t, double> cases[] = {{3, 13.82}, {1000, 1143.0}};
  for (const auto& [n, limit] : cases) {
    Rng rng(105 + n);
    std::vector<double> counts(n, 0.0);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t k = rng.index(n);
      ASSERT_LT(k, n);
      counts[k] += 1.0;
    }
    const double expect = double(kDraws) / double(n);
    double chi2 = 0.0;
    for (double c : counts) chi2 += (c - expect) * (c - expect) / expect;
    EXPECT_LT(chi2, limit) << "n = " << n;
  }
  Rng one(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(one.index(1), 0u);
}

TEST(Rng, CopyReplaysIncludingCachedSpare) {
  Rng a(9);
  a.gaussian(0.0, 1.0);  // leaves the pair's second normal cached
  Rng b = a;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

// --- allocation-free listener dispatch ---------------------------------

struct CountingListener {
  int calls = 0;
  void on_wire() { ++calls; }
};

TEST(SignalListeners, TypedSubscribeDispatches) {
  Kernel k;
  Wire w(k, "w", false);
  CountingListener a;
  w.subscribe<&CountingListener::on_wire>(&a);
  w.set(true);
  w.set(false);
  EXPECT_EQ(a.calls, 2);
}

TEST(SignalListeners, RegistrationOrderPreserved) {
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  // Mix both typed member shapes and the raw form, and spill past the
  // inline capacity (4 slots): delivery must stay in registration order.
  struct Rec {
    std::vector<int>* order;
    int tag;
    void fire() { order->push_back(tag); }
    void fire_with(const Wire& wire) {
      EXPECT_TRUE(wire.read());
      order->push_back(tag);
    }
  };
  std::vector<Rec> recs;
  recs.reserve(5);
  for (int i = 0; i < 4; ++i) {
    recs.push_back(Rec{&order, i});
    w.subscribe<&Rec::fire>(&recs.back());
  }
  recs.push_back(Rec{&order, 4});
  w.subscribe<&Rec::fire_with>(&recs.back());
  w.subscribe_raw(&order, [](void* ctx, const Wire&) {
    static_cast<std::vector<int>*>(ctx)->push_back(5);
  });
  w.set(true);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SignalListeners, SubscribeMidNotificationDoesNotInvalidateWalk) {
  // The Supply::fire_wake bug class: a listener registering another
  // listener while the walk is in progress must neither crash nor
  // deliver the new listener for the in-flight change — even when the
  // registration forces the inline array to spill to the vector.
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  std::function<void()> add_more;
  // A deque keeps every listener at a stable address while it grows.
  struct Callback {
    std::function<void()> fn;
    void call() { fn(); }
  };
  std::deque<Callback> listeners;
  const auto listen = [&](std::function<void()> fn) {
    listeners.push_back(Callback{std::move(fn)});
    w.subscribe<&Callback::call>(&listeners.back());
  };
  listen([&] {
    order.push_back(0);
    add_more();
  });
  listen([&] { order.push_back(1); });
  add_more = [&] {
    for (int tag = 10; tag < 16; ++tag) {
      listen([&order, tag] { order.push_back(tag); });
    }
  };
  w.set(true);
  // In-flight walk saw only the two original listeners.
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  order.clear();
  add_more = [] {};
  w.set(false);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 13, 14, 15}));
}

// --- Kernel::Stats aggregation semantics --------------------------------

TEST(KernelStats, AggregationSemantics) {
  // Sweeps sum per-kernel stats with operator+=. Counters are additive; peak_queue_depth takes the max (deepest any single
  // kernel got — the per-kernel memory bound); slab_capacity sums (each
  // kernel owns a slab, so the sweep's aggregate footprint adds).
  Kernel::Stats a;
  a.events_executed = 100;
  a.events_scheduled = 120;
  a.peak_queue_depth = 7;
  a.slab_capacity = 16;
  Kernel::Stats b;
  b.events_executed = 50;
  b.events_scheduled = 60;
  b.peak_queue_depth = 3;
  b.slab_capacity = 8;

  Kernel::Stats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.events_executed, 150u);
  EXPECT_EQ(sum.events_scheduled, 180u);
  EXPECT_EQ(sum.peak_queue_depth, 7u);  // max, not 10
  EXPECT_EQ(sum.slab_capacity, 24u);    // sum, not max

  // Max is order-independent: folding the deeper kernel in last must
  // give the same aggregate.
  Kernel::Stats rev;
  rev += b;
  rev += a;
  EXPECT_EQ(rev.peak_queue_depth, 7u);
  EXPECT_EQ(rev.slab_capacity, 24u);
}

}  // namespace
}  // namespace emc::sim
