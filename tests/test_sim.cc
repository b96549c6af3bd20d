// Unit tests for the discrete-event engine: time arithmetic, event
// ordering, determinism of the RNG streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(Time::nanoseconds(1).ps(), 1'000);
  EXPECT_EQ(Time::microseconds(1).ps(), 1'000'000);
  EXPECT_EQ(Time::milliseconds(1).ps(), 1'000'000'000);
  EXPECT_EQ(Time::seconds(1).ps(), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(Time::microseconds(3).us(), 3.0);
  EXPECT_DOUBLE_EQ(Time::nanoseconds(1500).us(), 1.5);
}

TEST(Time, Arithmetic) {
  const Time a = Time::nanoseconds(100);
  const Time b = Time::nanoseconds(40);
  EXPECT_EQ((a + b).ps(), 140'000);
  EXPECT_EQ((a - b).ps(), 60'000);
  EXPECT_EQ((a * 3).ps(), 300'000);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
  Time c = a;
  c += b;
  EXPECT_EQ(c, Time::nanoseconds(140));
}

TEST(Time, SerializationTime) {
  // The raw-scalar math lives behind sim::detail; product code goes
  // through core::serialization_time(Bytes, GbitsPerSec).
  // 4096 bytes at 400 Gbps = 4096*8/400e9 s = 81.92 ns.
  EXPECT_EQ(detail::serialization_time(4096, 400.0).ps(), 81'920);
  // 1 byte at 400 Gbps = 20 ps: stays exact in picoseconds.
  EXPECT_EQ(detail::serialization_time(1, 400.0).ps(), 20);
  EXPECT_EQ(detail::serialization_time(1500, 100.0).ps(), 120'000);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::nanoseconds(30), Time::zero(), 0, [&] { order.push_back(3); });
  q.schedule(Time::nanoseconds(10), Time::zero(), 0, [&] { order.push_back(1); });
  q.schedule(Time::nanoseconds(20), Time::zero(), 0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(InlineFn, SimultaneousEventsStayFifoUnderInterleavedPops) {
  // The InlineFn rework replaced swap-based sifting with hole moves; FIFO
  // order among same-time events must survive pops interleaved with
  // schedules (the hot-path pattern: executing one event schedules more).
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });
  }
  for (int i = 10; i < 20; ++i) {
    q.pop().fn();  // pop one of the earlier batch...
    q.schedule(Time::nanoseconds(5), Time::zero(), 0, [&order, i] { order.push_back(i); });  // ...schedule a later one
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(InlineFn, MoveTransfersCallableAndEmptiesSource) {
  int fired = 0;
  InlineFn a{[&fired] { ++fired; }};
  EXPECT_TRUE(static_cast<bool>(a));
  InlineFn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
  InlineFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(fired, 2);
}

TEST(InlineFn, NonTrivialCapturesDestructAndMoveCorrectly) {
  // A shared_ptr capture exercises the managed (non-memcpy) move/destroy
  // path: the payload must survive heap sifting and be released exactly
  // once when the event has run and the queue drains.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  int seen = 0;
  {
    EventQueue q;
    q.schedule(Time::nanoseconds(2), Time::zero(), 0, [token, &seen] { seen = *token; });
    // Force sifting around the shared_ptr capture.
    for (int i = 0; i < 8; ++i) q.schedule(Time::nanoseconds(1), Time::zero(), 0, [] {});
    token.reset();
    EXPECT_FALSE(alive.expired());
    while (!q.empty()) q.pop().fn();
  }
  EXPECT_EQ(seen, 7);
  EXPECT_TRUE(alive.expired());
}

TEST(EventQueue, ReservePreallocatesWithoutChangingBehavior) {
  EventQueue q;
  q.reserve(256);
  EXPECT_GE(q.capacity(), 256u);
  EXPECT_TRUE(q.empty());
  int fired = 0;
  for (int i = 0; i < 100; ++i) q.schedule(Time::nanoseconds(100 - i), Time::zero(), 0, [&fired] { ++fired; });
  Time last = Time::zero();
  while (!q.empty()) {
    EventQueue::Event ev = q.pop();
    EXPECT_GE(ev.at, last);
    last = ev.at;
    ev.fn();
  }
  EXPECT_EQ(fired, 100);
}

TEST(EventQueue, PopReturnsEarliest) {
  EventQueue q;
  q.schedule(Time::nanoseconds(50), Time::zero(), 0, [] {});
  q.schedule(Time::nanoseconds(5), Time::zero(), 0, [] {});
  EXPECT_EQ(q.next_time(), Time::nanoseconds(5));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(5));
  EXPECT_EQ(q.pop().at, Time::nanoseconds(50));
  EXPECT_TRUE(q.empty());
}

// Differential check of the delay lines against a reference that sorts by
// the full key (at, sched, prov). The mix covers what the hot path sends
// (a few fixed delays, sched == now), what it never sends but direct callers
// may (repeated and decreasing sched, which must trip the append guard),
// random delays, imported entries with foreign provenance, and more delays
// than lines, re-drawn every phase so lines drain and take new delays.
TEST(EventQueue, DelayLinesPopInFullKeyOrder) {
  using Key = std::tuple<std::int64_t, std::int64_t, std::uint64_t, int>;  // at, sched, prov, id
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng{seed};
    EventQueue q;
    std::set<Key> ref;
    int fired = -1;
    int next_id = 0;
    std::int64_t now = 0;
    std::int64_t last_sched = 0;
    std::uint64_t scheduled = 0;  // mirrors the queue's local seq counter
    std::uint64_t imports = 0;
    std::uint64_t import_seq[4] = {};
    std::vector<std::int64_t> delays(10);
    const auto pop_and_check = [&] {
      ASSERT_FALSE(ref.empty());
      const Key want = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(q.next_time().ps(), std::get<0>(want));
      EventQueue::Event ev = q.pop();
      ev.fn();
      ASSERT_EQ(ev.at.ps(), std::get<0>(want));
      ASSERT_EQ(ev.seq, std::get<2>(want));
      ASSERT_EQ(fired, std::get<3>(want));
      now = std::max(now, ev.at.ps());
    };
    for (int step = 0; step < 30'000; ++step) {
      if (step % 2'000 == 0) {
        for (std::int64_t& d : delays) d = 1'000 * static_cast<std::int64_t>(1 + rng.next_below(24));
      }
      // A bounded backlog lets lines drain, so new phases' delays get lines.
      if (ref.size() > 64 || (!ref.empty() && rng.next_below(100) < 45)) {
        pop_and_check();
        if (HasFatalFailure()) return;
        continue;
      }
      // Schedule instant: mostly now, sometimes the last one again (after
      // pops it may lag now), sometimes earlier than both.
      std::int64_t sched = now;
      const std::uint64_t s = rng.next_below(100);
      if (s < 10) sched = last_sched;
      else if (s < 20) sched = std::max<std::int64_t>(0, now - static_cast<std::int64_t>(rng.next_below(8'000)));
      last_sched = sched;
      const std::uint64_t kind = rng.next_below(100);
      // Half the fixed-delay picks favor a few delays, as the hot path does.
      const std::int64_t delay =
          kind < 40   ? delays[rng.next_below(3)]
          : kind < 75 ? delays[rng.next_below(delays.size())]
                      : static_cast<std::int64_t>(rng.next_below(30'000));
      const int id = next_id++;
      const Time at = Time::picoseconds(sched + delay);
      if (kind >= 90) {
        const auto src = static_cast<std::uint32_t>(1 + rng.next_below(3));
        import_seq[src] += 1 + rng.next_below(3);
        q.schedule_imported(at, Time::picoseconds(sched), src, import_seq[src],
                            [&fired, id] { fired = id; });
        ref.emplace(at.ps(), sched, EventQueue::pack_provenance(src, import_seq[src]), id);
        ++imports;
      } else {
        q.schedule(at, Time::picoseconds(sched), 0, [&fired, id] { fired = id; });
        ref.emplace(at.ps(), sched, EventQueue::pack_provenance(0, scheduled), id);
      }
      ++scheduled;
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      pop_and_check();
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.scheduled_total(), scheduled);
    // Both paths carried real traffic: the lines most events, the heap the
    // imports plus the local entries no line could take.
    EXPECT_GT(q.heap_pushes(), imports);
    EXPECT_LT(q.heap_pushes(), scheduled / 2);
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_in(Time::microseconds(2), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::microseconds(2));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(10), [&] {
    ++fired;
    sim.schedule_in(Time::nanoseconds(10), [&] {
      ++fired;
      sim.schedule_in(Time::nanoseconds(10), [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), Time::nanoseconds(30));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(10), [&] { ++fired; });
  sim.schedule_in(Time::nanoseconds(100), [&] { ++fired; });
  sim.run_until(Time::nanoseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::nanoseconds(50));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(Time::nanoseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with the pending event
  EXPECT_EQ(fired, 2);
}

// Regression: run_until used to clear stopped_ unconditionally on entry,
// silently discarding a stop requested before the run started. A pre-run
// stop now consumes the request and returns with nothing executed and the
// clock untouched.
TEST(Simulator, PreRunStopHonored) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::nanoseconds(5), [&] { ++fired; });
  sim.stop();
  EXPECT_TRUE(sim.stopped());
  sim.run_until(Time::nanoseconds(100));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
  // The stop was consumed: the next run proceeds normally.
  EXPECT_FALSE(sim.stopped());
  sim.run_until(Time::nanoseconds(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::nanoseconds(100));
}

// Pins stop semantics across run segments: each stop() halts exactly one
// run call (whether requested mid-run or between runs), and every segment
// resumes from the pending queue.
TEST(Simulator, StopAcrossRunSegments) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(Time::nanoseconds(1), [&] {
    order.push_back(1);
    sim.stop();  // mid-run stop: halts segment 1
  });
  sim.schedule_in(Time::nanoseconds(2), [&] { order.push_back(2); });
  sim.schedule_in(Time::nanoseconds(3), [&] { order.push_back(3); });
  sim.run();  // segment 1: executes event 1, halts
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.stop();  // pre-run stop: consumes segment 2 before it executes
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.run();  // segment 3: drains the rest
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::nanoseconds(3));
}

// Regression: fast_forward(to <= now) used to bump fast_forwards_ (and
// emit a kFidelity trace), inflating the hybrid engine's fidelity
// accounting with no-op jumps. A no-op fast-forward must not count.
TEST(Simulator, NoopFastForwardNotCounted) {
  Simulator sim;
  sim.schedule_in(Time::nanoseconds(10), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), Time::nanoseconds(10));
  EXPECT_EQ(sim.fast_forwards(), 0u);
  sim.fast_forward(Time::nanoseconds(10));  // to == now: no-op
  sim.fast_forward(Time::nanoseconds(5));   // to < now: no-op
  EXPECT_EQ(sim.fast_forwards(), 0u);
  EXPECT_EQ(sim.now(), Time::nanoseconds(10));
  sim.fast_forward(Time::nanoseconds(25));  // real jump: counted
  EXPECT_EQ(sim.fast_forwards(), 1u);
  EXPECT_EQ(sim.now(), Time::nanoseconds(25));
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng{7};
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.next_below(8)];
  for (const int c : counts) {
    EXPECT_GT(c, 800);  // roughly uniform: expect 1000 each
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{9};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng{11};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.015)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.015, 0.002);
}

TEST(Rng, BernoulliEdges) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a{21};
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng parent_copy{21};
  (void)parent_copy.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

double standard_normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

// The ziggurat sampler against N(0, 1). Every bound is a 4-sigma sampling
// band (or the KS 1% critical value), wide enough for a correct sampler on
// almost any seed; the fixed seed keeps the test reproducible.
TEST(Rng, NormalMatchesStandardNormal) {
  constexpr std::size_t kDraws = 4'000'000;
  const double n = static_cast<double>(kDraws);
  Rng rng{20240615};
  std::vector<double> z(kDraws);
  for (double& v : z) v = rng.normal();

  double sum = 0.0;
  for (const double v : z) sum += v;
  const double mean = sum / n;
  double m2 = 0.0;
  double m4 = 0.0;
  for (const double v : z) {
    const double d2 = (v - mean) * (v - mean);
    m2 += d2;
    m4 += d2 * d2;
  }
  m2 /= n;
  m4 /= n;
  EXPECT_NEAR(mean, 0.0, 4.0 / std::sqrt(n));
  EXPECT_NEAR(m2, 1.0, 4.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 4.0 * std::sqrt(24.0 / n));

  // Each tail's mass on its own, so a sign lost on one side shows; beyond
  // 4 sigma is reachable only through the exponential tail past R.
  for (const double k : {1.0, 2.0, 3.0, 4.0}) {
    const double p = standard_normal_cdf(-k);
    const double band = 4.0 * std::sqrt(n * p * (1.0 - p));
    const auto above = std::count_if(z.begin(), z.end(), [k](double v) { return v > k; });
    const auto below = std::count_if(z.begin(), z.end(), [k](double v) { return v < -k; });
    EXPECT_NEAR(static_cast<double>(above), n * p, band) << "P(z > " << k << ")";
    EXPECT_NEAR(static_cast<double>(below), n * p, band) << "P(z < -" << k << ")";
  }

  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double cdf = standard_normal_cdf(z[i]);
    ks = std::max({ks, static_cast<double>(i + 1) / n - cdf, cdf - static_cast<double>(i) / n});
  }
  EXPECT_LT(ks, 1.628 / std::sqrt(n)) << "Kolmogorov-Smirnov statistic";

  Rng a{77};
  Rng b{77};
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(a.normal(), b.normal()) << "draw " << i;
}

// The ziggurat tables are what Marsaglia's construction gives for R and V:
// x re-derived layer by layer from R, f = exp(-x²/2), every layer of area V,
// and the top layer closing exactly at x = 0.
TEST(Rng, NormalZigguratTablesAreEqualArea) {
  using ziggurat::kLayers;
  using ziggurat::kR;
  using ziggurat::kV;
  const auto& xs = ziggurat::x();
  const auto& fs = ziggurat::f();
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  constexpr double kRel = 1e-12;

  EXPECT_EQ(xs[1], kR);
  EXPECT_EQ(xs[kLayers], 0.0);
  EXPECT_EQ(fs[kLayers], 1.0);
  EXPECT_NEAR(xs[0], kV / f(kR), kRel * xs[0]);
  for (int i = 0; i <= kLayers; ++i) EXPECT_NEAR(fs[i], f(xs[i]), kRel * fs[i]) << "f[" << i << "]";

  double x = kR;
  for (int i = 2; i < kLayers; ++i) {
    x = std::sqrt(-2.0 * std::log(f(x) + kV / x));
    EXPECT_NEAR(xs[i], x, kRel * x) << "x[" << i << "]";
  }

  // Base layer: the rectangle under f(R) plus the tail past R.
  const double tail = std::sqrt(std::acos(-1.0) / 2.0) * std::erfc(kR / std::sqrt(2.0));
  EXPECT_NEAR(kR * f(kR) + tail, kV, kRel * kV);
  EXPECT_NEAR(xs[0] * fs[1], kV, kRel * kV);
  for (int i = 1; i < kLayers; ++i) {
    EXPECT_NEAR(xs[i] * (fs[i + 1] - fs[i]), kV, kRel * kV) << "layer " << i;
  }
}

}  // namespace
}  // namespace flowpulse::sim
