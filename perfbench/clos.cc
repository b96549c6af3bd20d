// clos1k: the 1024-host three-level Clos (16 pods × 8 leaves × 8
// pod-spines × 8 hosts per leaf), a 1 MiB Ring-ReduceScatter on the serial
// engine, and a black hole on one leaf–pod-spine link the seed picks. About
// a million one-packet messages per iteration make the layers work per
// message rather than per packet: CollectiveRunner::launch_stage, the
// transport's per-peer maps, a large event heap.
//
// One unit of work is one exp::ClosScenario: construct (setup), run (the
// timed phase), destroy (teardown); --seconds fixes the unit count.
// ClosScenario exposes neither its transport layer nor its collective
// runner, so this workload reports no transport counts and cannot compare
// messages sent with received; it checks instead that the run drained its
// event queue (every message delivered and acknowledged) and finalized
// every iteration.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "collective/demand_matrix.h"
#include "collective/schedule.h"
#include "exp/clos_scenario.h"
#include "flowpulse/three_level_system.h"
#include "net/packet.h"
#include "bench.h"
#include "probe.h"

namespace fpbench {

using namespace flowpulse;

namespace {

constexpr std::uint32_t kIterations = 1;

struct Counts {
  std::uint64_t events = 0, tx = 0, dropped = 0;
  std::size_t leaf_rows = 0, spine_rows = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct Tally {
  std::uint64_t checks = 0, alerts = 0, healthy_checks = 0, healthy_clean = 0;
  /// The leaf-tier alert with the largest deviation is on the cable. At
  /// 1 MiB every port alerts (README defect 1), so "a port of the cable
  /// alerted" could not fail; this localisation can.
  bool localized = false;
  double top_dev = 0.0;  ///< that alert's |rel_dev|
};

/// Every leaf and pod-spine check of the run. A cable fault on
/// (leaf, pod-spine s) can move port s of the leaf itself (downlink
/// direction) and port s of the leaves it sends to (uplink direction: its
/// pod peers and, over the ring, its successor); every other port is
/// healthy.
Tally tally(const fp::ThreeLevelFlowPulse& f, const net::ThreeLevelInfo& info, net::LeafId leaf,
            std::uint32_t spine_index) {
  Tally t;
  const std::uint32_t pod = leaf.v() / info.leaves_per_pod;
  const std::uint32_t next_leaf = (leaf.v() + 1) % info.num_leaves();  // ring successor
  auto on_cable = [&](net::LeafId x, std::uint32_t port, bool leaf_tier) {
    return leaf_tier && port == spine_index &&
           (x.v() / info.leaves_per_pod == pod || x.v() == next_leaf);
  };
  auto count = [&](const std::vector<fp::DetectionResult>& results, std::uint32_t ports,
                   bool leaf_tier) {
    for (const fp::DetectionResult& r : results) {
      std::vector<std::uint8_t> alerted(ports, 0);
      for (const fp::PortAlert& a : r.alerts) {
        if (a.uplink.v() < ports) alerted[a.uplink.v()] = 1;
        if (leaf_tier && std::abs(a.rel_dev) > t.top_dev) {
          t.top_dev = std::abs(a.rel_dev);
          t.localized = on_cable(r.leaf, a.uplink.v(), leaf_tier);
        }
      }
      for (std::uint32_t p = 0; p < ports; ++p) {
        ++t.checks;
        t.alerts += alerted[p];
        if (on_cable(r.leaf, p, leaf_tier)) continue;
        ++t.healthy_checks;
        t.healthy_clean += alerted[p] == 0 ? 1 : 0;
      }
    }
  };
  count(f.leaf_results(), info.spines_per_pod, true);
  count(f.spine_results(), info.cores_per_group(), false);
  return t;
}

}  // namespace

void run_clos(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe) {
  exp::ClosScenarioConfig cfg;
  const net::ThreeLevelInfo info = cfg.fabric.shape;
  cfg.collective_bytes = core::Bytes{1u << 20};
  cfg.iterations = kIterations;
  cfg.lanes = 0;  // serial engine
  cfg.seed = mix(o.seed, 3);
  const net::LeafId fault_leaf{pick(o.seed, 1, info.num_leaves())};
  const std::uint32_t fault_spine = pick(o.seed, 2, info.spines_per_pod);
  cfg.leaf_faults.push_back({fault_leaf, fault_spine, net::FaultSpec::black_hole()});
  std::cout << "# fault: black hole on leaf " << fault_leaf.v() << " <-> pod-spine "
            << fault_spine << " of pod " << fault_leaf.v() / info.leaves_per_pod << "\n";

  // Layer calls timed outside the scenario: the ring schedule over 1024
  // ranks and the three-level analytical prediction.
  std::vector<double> sched_ms, pred_ms;
  collective::CommSchedule schedule;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Tracer::Scope span{t, "collective.ring_reduce_scatter"};
    schedule = collective::ring_reduce_scatter(info.num_hosts(), cfg.collective_bytes);
    sched_ms.push_back(1e3 * since(t0));
  }
  {
    std::vector<net::HostId> hosts;
    for (std::uint32_t h = 0; h < info.num_hosts(); ++h) hosts.push_back(net::HostId{h});
    const auto demand = collective::DemandMatrix::from_schedule(schedule, hosts, info.num_hosts());
    const net::RoutingState routing{info.num_leaves(), info.spines_per_pod};
    const fp::ThreeLevelAnalyticalModel model{info, cfg.transport.mtu_payload, net::kHeaderBytes};
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Tracer::Scope span{t, "fp.ThreeLevelAnalyticalModel.predict"};
      const fp::ThreeLevelPrediction p = model.predict(demand, routing);
      pred_ms.push_back(1e3 * since(t0));
    }
  }

  std::vector<double> setup, units_timed;
  std::vector<double> teardown;
  // Every unit is the same seeded scenario, so its counts must repeat. The
  // unit count follows --seconds (about ten seconds a unit here).
  const std::uint32_t units = std::max<std::uint32_t>(
      min_units(o, 1), static_cast<std::uint32_t>(std::lround(o.seconds / 10.0)));
  std::optional<Counts> first;
  Tally kept{};
  for (std::uint32_t i = 0; i < units; ++i) {
    probe.sample();
    // Extra set-ups beyond the unit's own, spread over the run so the
    // median sees the same host conditions as the timed units.
    for (int k = 0; k < 8; ++k) {
      const Clock::time_point t0 = Clock::now();
      const exp::ClosScenario s{cfg};
      setup.push_back(since(t0));
    }
    t.begin_unit(i);
    const Tracer::Scope unit_span{t, "unit"};
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<exp::ClosScenario> s;
    {
      const Tracer::Scope span{t, "exp.ClosScenario.ctor"};
      s = std::make_unique<exp::ClosScenario>(cfg);
    }
    setup.push_back(since(t0));
    t0 = Clock::now();
    exp::ClosScenarioResult r;
    {
      const Tracer::Scope span{t, "exp.ClosScenario.run"};
      r = s->run();
    }
    units_timed.push_back(since(t0));
    const Tally unit_tally = tally(s->flowpulse(), info, fault_leaf, fault_spine);
    // The clock always ends at the horizon; a run that finished its
    // iterations has drained its event queue before it.
    const std::size_t pending = s->simulator().events_pending();
    t0 = Clock::now();
    {
      const Tracer::Scope span{t, "exp.ClosScenario.dtor"};
      s.reset();
    }
    teardown.push_back(since(t0));

    std::vector<std::string> problems;
    Counts counts;
    counts.events = r.events;
    counts.tx = r.fabric_counters.tx_packets.v();
    counts.dropped = r.fabric_counters.dropped_packets.v();
    counts.leaf_rows = r.faulty_leaves.size();
    counts.spine_rows = r.faulty_spines.size();
    if (r.leaf_iteration_max_dev.size() != kIterations || pending != 0) {
      problems.push_back("run did not drain before the horizon (" + std::to_string(pending) +
                         " events pending, " + std::to_string(r.leaf_iteration_max_dev.size()) +
                         " of " + std::to_string(kIterations) + " iterations)");
    }
    if (!unit_tally.localized) {
      problems.push_back("the largest leaf-tier deviation is not on the injected link");
    }
    if (!first) {
      first = counts;
      kept = unit_tally;
    } else if (!(counts == *first)) {
      problems.push_back("a repeat of the same seeded scenario did different work");
    }
    c.unit(problems);
  }
  t.end_units();
  probe.sample();

  report_setup(setup, probe, m);
  const double run_s = report_units(units_timed, t, probe, m);
  m["exp.teardown_s"] = median(teardown);
  m["detect_ratio"] = kept.localized ? 1.0 : 0.0;

  const Counts& k = *first;
  m["sim.events"] = static_cast<double>(k.events);
  m["sim.events_per_s"] = static_cast<double>(k.events) / run_s;
  m["net.tx_packets"] = static_cast<double>(k.tx);
  m["net.dropped_packets"] = static_cast<double>(k.dropped);
  m["net.events_per_packet"] = static_cast<double>(k.events) / static_cast<double>(k.tx);
  m["collective.iterations"] = kIterations;
  m["collective.schedule_ms"] = median(sched_ms);
  m["flowpulse.predict_ms"] = median(pred_ms);
  m["flowpulse.checks"] = static_cast<double>(kept.checks);
  m["flowpulse.alerts"] = static_cast<double>(kept.alerts);
  m["flowpulse.packet_iters"] = kIterations;
  m["flowpulse.clean_ratio"] =
      static_cast<double>(kept.healthy_clean) / static_cast<double>(kept.healthy_checks);
}

}  // namespace fpbench
