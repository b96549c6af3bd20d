// fattree-packet: the paper's §6 shape at packet fidelity. A 32×16
// two-level fat tree, one host per leaf, a ~16 MB Ring-ReduceScatter, and a
// 1.5% silent drop on both directions of one leaf–spine cable the seed
// picks. Hundreds of packets per message make the egress/switch and the
// transport's window/SACK/retransmit paths the hot ones.
//
// One unit of work is one exp::Scenario: construct (setup), run (the timed
// phase, with an iteration hook stamping host time per collective
// iteration), destroy (teardown). Each unit has its own seeded cable, and
// the number of units is fixed by --seconds, so every count is exact for a
// given seed and run length.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "exp/scenario.h"
#include "probe.h"
#include "two_level.h"

namespace fpbench {

using namespace flowpulse;

namespace {

constexpr std::uint32_t kLeaves = 32;
constexpr std::uint32_t kSpines = 16;
constexpr std::uint64_t kBytes = 16'000'000;
constexpr std::uint32_t kIterations = 6;
constexpr double kDropRate = 0.015;
/// Iteration-time samples wanted for a median with ten beyond it.
constexpr std::uint32_t kMinIterationSamples = 20;

/// Work counters summed over a run's units.
struct Counts {
  std::uint64_t events = 0, tx = 0, dropped = 0, data = 0, retx = 0, acks = 0, msgs = 0;
  std::uint32_t iterations = 0;

  void add(const exp::ScenarioResult& r) {
    events += r.events;
    tx += r.fabric_counters.tx_packets.v();
    dropped += r.fabric_counters.dropped_packets.v();
    data += r.transport_stats.data_packets_sent;
    retx += r.transport_stats.retx_packets_sent;
    acks += r.transport_stats.acks_sent;
    msgs += r.transport_stats.messages_sent;
    iterations += r.iterations_completed;
  }
};

}  // namespace

void run_fattree(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe) {
  const net::TopologyInfo shape{kLeaves, kSpines, 1, 1};
  exp::ScenarioConfig base;
  base.fabric.shape = shape;
  base.collective = collective::CollectiveKind::kRingReduceScatter;
  base.collective_bytes = core::Bytes{kBytes};
  base.iterations = kIterations;
  base.flowpulse.threshold = 0.01;
  base.lanes = 0;  // serial engine, whatever FLOWPULSE_LANES says

  // Unit i injects its fault on its own seeded cable, so detection quality
  // averages over several fault sites; the unit count follows --seconds
  // (about five seconds a unit here) and is exact for a given run length.
  const std::uint32_t units = std::max<std::uint32_t>(
      {min_units(o, 1), (kMinIterationSamples + kIterations - 1) / kIterations,
       static_cast<std::uint32_t>(std::lround(o.seconds / 5.0))});
  std::vector<exp::ScenarioConfig> configs;
  for (std::uint32_t i = 0; i < units; ++i) {
    exp::ScenarioConfig cfg = base;
    cfg.seed = mix(o.seed, 1000 + i);
    exp::NewFault fault;
    fault.leaf = net::LeafId{pick(cfg.seed, 1, kLeaves)};
    fault.uplink = net::UplinkIndex{pick(cfg.seed, 2, kSpines)};
    fault.where = exp::NewFault::Where::kBoth;
    fault.spec = net::FaultSpec::random_drop(kDropRate);
    cfg.new_faults.push_back(fault);
    std::cout << "# unit " << i << " fault: " << kDropRate * 100 << "% silent drop on cable leaf "
              << fault.leaf.v() << " <-> spine " << fault.uplink.v() << " (both directions)\n";
    configs.push_back(cfg);
  }

  const TwoLevelModel model =
      time_two_level_model(shape, base.collective_bytes, base.transport.mtu_payload, 15, t);

  std::vector<double> setup, units_timed;
  std::vector<double> teardown, iter_ms;
  // Extra set-ups beyond each unit's own, spread over the run so the median
  // sees the same host conditions as the timed units.
  auto extra_setups = [&](const exp::ScenarioConfig& cfg) {
    for (int i = 0; i < 24; ++i) {
      const Clock::time_point t0 = Clock::now();
      const exp::Scenario s{cfg};
      setup.push_back(since(t0));
    }
  };

  Counts k;
  std::uint64_t checks = 0, alerts = 0, healthy = 0, healthy_clean = 0;
  std::uint32_t active = 0, flagged = 0;
  std::vector<double> detect_iters;
  for (std::uint32_t i = 0; i < units; ++i) {
    const exp::ScenarioConfig& cfg = configs[i];
    probe.sample();
    extra_setups(cfg);
    t.begin_unit(i);
    const Tracer::Scope unit_span{t, "unit"};
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<exp::Scenario> s;
    {
      const Tracer::Scope span{t, "exp.Scenario.ctor"};
      s = std::make_unique<exp::Scenario>(cfg);
    }
    setup.push_back(since(t0));

    // One sample (and span) per collective iteration: host time since the
    // previous iteration ended, or since run() began.
    Clock::time_point last{};
    std::uint32_t run_span = 0;
    s->runner().add_iteration_hook([&](net::IterIndex, sim::Time, sim::Time) {
      const Clock::time_point now = Clock::now();
      iter_ms.push_back(1e3 * secs(now - last));
      if (t.active()) t.add({SpanRecord{"collective.iteration", last, now, run_span, 0}});
      last = now;
    });
    t0 = Clock::now();
    last = t0;
    exp::ScenarioResult r;
    {
      const Tracer::Scope span{t, "exp.Scenario.run"};
      run_span = t.current();
      r = s->run();
    }
    units_timed.push_back(since(t0));

    t0 = Clock::now();
    {
      const Tracer::Scope span{t, "exp.Scenario.dtor"};
      s.reset();
    }
    teardown.push_back(since(t0));

    k.add(r);
    const Cable cable{cfg.new_faults[0].leaf, cfg.new_faults[0].uplink, shape, model.demand};
    const PortTally pt = tally(r.detections, kSpines, kIterations, cable);
    checks += pt.checks;
    alerts += pt.alerts;
    healthy += pt.healthy_checks;
    healthy_clean += pt.healthy_clean;
    std::optional<std::uint32_t> onset, first_flag;
    for (std::uint32_t it = 0; it < r.iter_fault_active.size() && it < kIterations; ++it) {
      if (!r.iter_fault_active[it]) continue;
      if (!onset) onset = it;
      ++active;
      if (pt.cable_flagged[it]) {
        ++flagged;
        if (!first_flag) first_flag = it;
      }
    }
    if (onset && first_flag) detect_iters.push_back(*first_flag - *onset);

    std::vector<std::string> problems;
    const std::string tag = "unit " + std::to_string(i) + ": ";
    if (!first_flag) problems.push_back(tag + "injected cable never flagged");
    if (r.iterations_completed != kIterations) problems.push_back(tag + "iterations not completed");
    if (r.transport_stats.messages_sent != r.transport_stats.messages_received) {
      problems.push_back(tag + "messages_sent != messages_received");
    }
    c.unit(problems);
  }
  t.end_units();
  probe.sample();

  report_setup(setup, probe, m);
  const double run_s = report_units(units_timed, t, probe, m);
  m["exp.teardown_s"] = median(teardown);
  m["detect_ratio"] = active == 0 ? 0.0 : static_cast<double>(flagged) / active;

  // Counts are totals over the run's units; rates use the timed phase.
  m["sim.events"] = static_cast<double>(k.events);
  m["sim.events_per_s"] = static_cast<double>(k.events) / (run_s * units);
  m["net.tx_packets"] = static_cast<double>(k.tx);
  m["net.dropped_packets"] = static_cast<double>(k.dropped);
  m["net.events_per_packet"] = static_cast<double>(k.events) / static_cast<double>(k.tx);
  m["transport.data_packets"] = static_cast<double>(k.data);
  m["transport.retx_packets"] = static_cast<double>(k.retx);
  m["transport.acks"] = static_cast<double>(k.acks);
  m["transport.messages"] = static_cast<double>(k.msgs);
  m["transport.retx_ratio"] = static_cast<double>(k.retx) / static_cast<double>(k.data);
  m["transport.packets_per_message"] = static_cast<double>(k.data) / static_cast<double>(k.msgs);
  m["collective.iterations"] = k.iterations;
  m["collective.schedule_ms"] = model.schedule_ms;
  if (const auto p50 = tail_quantile(iter_ms, 0.5)) m["collective.iter_ms_p50"] = *p50;
  m["flowpulse.predict_ms"] = model.predict_ms;
  m["flowpulse.checks"] = static_cast<double>(checks);
  m["flowpulse.alerts"] = static_cast<double>(alerts);
  m["flowpulse.packet_iters"] = k.iterations;
  m["flowpulse.clean_ratio"] = static_cast<double>(healthy_clean) / static_cast<double>(healthy);
  if (const auto p50 = tail_quantile(detect_iters, 0.5)) m["flowpulse.detect_iters_p50"] = *p50;
}

}  // namespace fpbench
