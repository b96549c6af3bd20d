// fpcalibrate: measures, on real packet-fidelity runs, the counter noise and
// fault signature that daemon-replay's recorded stream carries, and the
// figures daemon_replay.cc and perfbench/README.md quote.
//
//   fpcalibrate [--seeds N]
//
// Runs daemon-replay's fabric and collective (32×16 two-level fat tree, one
// host per leaf, a ~16 MB Ring-ReduceScatter, serial engine) at packet
// fidelity and reads every leaf monitor's history through the public
// scenario.flowpulse().monitor(l).history():
//
//   clean   N seeds, no fault, the streaming detector. For every monitored
//           port, the relative deviation of its bytes from the prediction:
//           mean, standard deviation, largest magnitude, and the largest
//           swing between consecutive iterations; and the detector's alerts.
//   fault   N seeds per drop rate (1.5% and daemon-replay's 10%), a silent
//           drop on one seeded spine→leaf link. The faulty port's shortfall
//           as a share of its predicted bytes, per iteration, and where the
//           retransmitted bytes land: the excess on each sibling port and on
//           all of them together, as a share of the bytes lost.
//
// About 0.8 s of host time per simulated iteration.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/scenario.h"

using namespace flowpulse;
using namespace fpbench;

namespace {

constexpr std::uint32_t kLeaves = 32;
constexpr std::uint32_t kSpines = 16;
constexpr std::uint64_t kBytes = 16'000'000;
constexpr std::uint32_t kIterations = 6;

struct Moments {
  double n = 0, sum = 0, sum2 = 0, max_abs = 0, min = HUGE_VAL;
  void add(double x) {
    n += 1;
    min = std::min(min, x);
    sum += x;
    sum2 += x * x;
    max_abs = std::max(max_abs, std::abs(x));
  }
  [[nodiscard]] double mean() const { return n == 0 ? 0 : sum / n; }
  [[nodiscard]] double sd() const {
    return n < 2 ? 0 : std::sqrt(std::max(0.0, (sum2 - sum * sum / n) / (n - 1)));
  }
};

exp::ScenarioConfig config(std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{kLeaves, kSpines, 1, 1};
  cfg.collective = collective::CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{kBytes};
  cfg.iterations = kIterations;
  cfg.flowpulse.threshold = 0.01;
  cfg.lanes = 0;
  cfg.seed = seed;
  return cfg;
}

/// Predicted bytes of one port, over all senders.
double predicted(const fp::PortLoadMap& want, net::LeafId l, std::uint32_t u) {
  double sum = 0.0;
  for (const double b : want.at(l, net::UplinkIndex{u}).by_src_leaf) sum += b;
  return sum;
}

void clean(std::uint32_t seeds) {
  Moments dev, swing;
  std::size_t alerts = 0, checks = 0;
  for (std::uint32_t k = 0; k < seeds; ++k) {
    exp::ScenarioConfig cfg = config(mix(k + 1, 7));
    cfg.flowpulse.detector = fp::DetectorKind::kStreaming;
    exp::Scenario s{cfg};
    const exp::ScenarioResult r = s.run();
    for (const fp::DetectionResult& d : r.detections) alerts += d.alerts.size();
    const fp::PortLoadMap& want = *s.prediction();
    for (std::uint32_t l = 0; l < kLeaves; ++l) {
      const auto& history = s.flowpulse().monitor(net::LeafId{l}).history();
      for (std::uint32_t u = 0; u < kSpines; ++u) {
        const double w = predicted(want, net::LeafId{l}, u);
        for (std::size_t i = 0; i < history.size(); ++i) {
          ++checks;
          dev.add(history[i].bytes[u] / w - 1.0);
          if (i > 0) swing.add((history[i].bytes[u] - history[i - 1].bytes[u]) / w);
        }
      }
    }
  }
  std::printf("clean: %u seeds x %u iterations x %u leaves x %u ports\n", seeds, kIterations,
              kLeaves, kSpines);
  std::printf("  port deviation:  mean %+.5f%%  sd %.5f%%  max |dev| %.5f%%\n", 100 * dev.mean(),
              100 * dev.sd(), 100 * dev.max_abs);
  std::printf("  iteration-to-iteration swing:  sd %.5f%%  max %.5f%%\n", 100 * swing.sd(),
              100 * swing.max_abs);
  std::printf("  streaming detector: %zu alerts over %zu port checks\n", alerts, checks);
}

void fault(std::uint32_t seeds, double drop) {
  Moments shortfall, sibling, siblings;
  for (std::uint32_t k = 0; k < seeds; ++k) {
    const std::uint64_t seed = mix(k + 1, 8);
    exp::ScenarioConfig cfg = config(seed);
    exp::NewFault f;
    f.leaf = net::LeafId{pick(seed, 1, kLeaves)};
    f.uplink = net::UplinkIndex{pick(seed, 2, kSpines)};
    f.where = exp::NewFault::Where::kDownlink;
    f.spec = net::FaultSpec::random_drop(drop);
    cfg.new_faults.push_back(f);
    exp::Scenario s{cfg};
    s.run();
    const fp::PortLoadMap& want = *s.prediction();
    for (const fp::IterationRecord& rec : s.flowpulse().monitor(f.leaf).history()) {
      const double w = predicted(want, f.leaf, f.uplink.v());
      const double lost = w - rec.bytes[f.uplink.v()];
      shortfall.add(lost / w);
      double excess = 0.0;
      for (std::uint32_t u = 0; u < kSpines; ++u) {
        if (u == f.uplink.v()) continue;
        const double e = rec.bytes[u] - predicted(want, f.leaf, u);
        excess += e;
        if (lost > 0.0) sibling.add(e / lost);
      }
      if (lost > 0.0) siblings.add(excess / lost);
    }
  }
  std::printf("fault: %.1f%% drop on one spine->leaf link, %u seeds x %u iterations\n",
              100 * drop, seeds, kIterations);
  std::printf("  faulty port shortfall / predicted:  mean %.5f%%  sd %.5f%%  min %.5f%%\n",
              100 * shortfall.mean(), 100 * shortfall.sd(), 100 * shortfall.min);
  std::printf("  excess per sibling port / lost:     mean %.4f  sd %.4f  (1/%u = %.4f)\n",
              sibling.mean(), sibling.sd(), kSpines - 1, 1.0 / (kSpines - 1));
  std::printf("  excess on all siblings / lost:      mean %.4f  sd %.4f\n", siblings.mean(),
              siblings.sd());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t seeds = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string{argv[i]} == "--seeds") {
      seeds = static_cast<std::uint32_t>(std::stoul(argv[i + 1]));
    }
  }
  clean(seeds);
  fault(seeds, 0.015);
  fault(seeds, 0.10);
  return 0;
}
