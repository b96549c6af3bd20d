// flow-campaign: K seeded trials back to back on one thread. Each trial is
// a 32×16 closed loop at flow fidelity (no packet events) with the
// mitigation controller and the threshold detector, over 2000 iterations.
// The trial's seed picks the fault kind (black hole, random drop,
// Gilbert–Elliott, flapping black hole), the spine→leaf link and a mid-run
// onset. Flow fast-forward, detection, the controller and per-trial set-up
// do all the work, so the packet path should predict no change here.
//
// One unit of work is one trial (construct, run, destroy). Quality metrics
// aggregate over all K trials, which K = 3 × --seconds fixes, so they are
// exact for a given seed and run length.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "exp/scenario.h"
#include "flowpulse/fastforward.h"
#include "net/packet.h"
#include "probe.h"
#include "two_level.h"

namespace fpbench {

using namespace flowpulse;

namespace {

constexpr std::uint32_t kLeaves = 32;
constexpr std::uint32_t kSpines = 16;
constexpr std::uint64_t kBytes = 16'000'000;
constexpr std::uint32_t kIterations = 2000;
constexpr const char* kKindNames[] = {"black-hole", "random-drop", "gilbert-elliott", "flap"};

struct Trial {
  exp::ScenarioConfig cfg;
  net::LeafId leaf{};
  net::UplinkIndex uplink{};
  std::uint32_t kind = 0;
  sim::Time onset = sim::Time::zero();
};

Trial make_trial(std::uint64_t trial_seed, sim::Time span) {
  Trial t;
  t.kind = pick(trial_seed, 1, 4);
  t.leaf = net::LeafId{pick(trial_seed, 2, kLeaves)};
  t.uplink = net::UplinkIndex{pick(trial_seed, 3, kSpines)};
  // Onset inside iterations [200, 1200), half-way through one.
  const std::uint32_t onset_iter = 200 + pick(trial_seed, 4, 1000);
  t.onset = sim::Time::picoseconds(span.ps() * onset_iter + span.ps() / 2);

  exp::ScenarioConfig& cfg = t.cfg;
  cfg.fabric.shape = net::TopologyInfo{kLeaves, kSpines, 1, 1};
  cfg.collective = collective::CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{kBytes};
  cfg.iterations = kIterations;
  cfg.flowpulse.threshold = 0.01;
  cfg.flowpulse.detector = fp::DetectorKind::kThreshold;
  cfg.fidelity.mode = fp::FidelityMode::kFlow;
  cfg.mitigation.enabled = true;
  cfg.mitigation.debounce_iterations = 2;
  cfg.mitigation.settle_iterations = 1;
  cfg.mitigation.probation_iterations = 2;
  cfg.lanes = 0;
  cfg.seed = mix(trial_seed, 5);

  exp::NewFault f;
  f.leaf = t.leaf;
  f.uplink = t.uplink;
  f.where = exp::NewFault::Where::kDownlink;
  switch (t.kind) {
    case 0:
      f.spec = net::FaultSpec::black_hole(t.onset);
      break;
    case 1:
      f.spec = net::FaultSpec::random_drop(0.02 + 0.01 * pick(trial_seed, 6, 4), t.onset);
      break;
    case 2:
      f.spec = net::FaultSpec::gilbert_elliott(0.05, 20.0, 0.5, 0.0, t.onset);
      break;
    default:
      f.spec = net::FaultSpec::black_hole(t.onset).with_flap(
          sim::Time::picoseconds(span.ps() * 10), sim::Time::picoseconds(span.ps() * 4));
      break;
  }
  cfg.new_faults.push_back(f);
  return t;
}

}  // namespace

void run_campaign(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe) {
  const net::TopologyInfo shape{kLeaves, kSpines, 1, 1};
  const exp::ScenarioConfig defaults;
  const TwoLevelModel model =
      time_two_level_model(shape, core::Bytes{kBytes}, defaults.transport.mtu_payload, 15, t);
  // The flow engine's iteration clock: the analytic duration estimate plus
  // the compute gap, used to place each onset mid-iteration.
  fp::FastForwardModel::Config ffc;
  ffc.mtu_payload = defaults.transport.mtu_payload;
  ffc.header_bytes = net::kHeaderBytes;
  const sim::Time span =
      fp::FastForwardModel{shape, ffc}.estimate_iteration_time(
          model.demand, defaults.fabric.host_link.bandwidth) +
      defaults.compute_gap;

  const auto trials = static_cast<std::uint32_t>(std::max(8.0, std::round(3.0 * o.seconds)));
  std::vector<double> setup, run;
  std::vector<double> teardown, flow_iter_us, detect_iters, recover_ms, mitigate_ms;
  std::uint64_t detected = 0, quarantines = 0, false_quarantines = 0, restores = 0;
  std::uint64_t checks = 0, alerts = 0, healthy = 0, healthy_clean = 0;
  std::uint64_t flow_iters = 0, packet_iters = 0, demotions = 0, events = 0;
  std::uint32_t kinds[4] = {};

  for (std::uint32_t i = 0; i < trials; ++i) {
    if (i % 6 == 0) probe.sample();
    const Trial trial = make_trial(mix(o.seed, 100 + i), span);
    ++kinds[trial.kind];
    t.begin_unit(i);
    const Tracer::Scope unit_span{t, "trial"};
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<exp::Scenario> s;
    {
      const Tracer::Scope sp{t, "exp.Scenario.ctor"};
      s = std::make_unique<exp::Scenario>(trial.cfg);
    }
    setup.push_back(since(t0));
    t0 = Clock::now();
    exp::ScenarioResult r;
    {
      const Tracer::Scope sp{t, "exp.Scenario.run"};
      r = s->run();
    }
    run.push_back(since(t0));
    t0 = Clock::now();
    {
      const Tracer::Scope sp{t, "exp.Scenario.dtor"};
      s.reset();
    }
    teardown.push_back(since(t0));

    const Cable cable{trial.leaf, trial.uplink, shape, model.demand};
    const PortTally pt = tally(r.detections, kSpines, kIterations, cable);
    checks += pt.checks;
    alerts += pt.alerts;
    healthy += pt.healthy_checks;
    healthy_clean += pt.healthy_clean;
    flow_iters += r.fidelity.flow_iterations;
    packet_iters += r.fidelity.packet_iterations;
    demotions += r.fidelity.demotions;
    events += r.events;
    if (r.fidelity.flow_iterations > 0) {
      flow_iter_us.push_back(1e6 * run.back() / r.fidelity.flow_iterations);
    }

    std::optional<std::uint32_t> onset_iter, flag_iter;
    for (std::uint32_t k = 0; k < r.iter_fault_active.size(); ++k) {
      if (r.iter_fault_active[k] && !onset_iter) onset_iter = k;
      if (onset_iter && !flag_iter && k < pt.cable_flagged.size() && pt.cable_flagged[k]) {
        flag_iter = k;
      }
    }
    if (flag_iter) {
      ++detected;
      detect_iters.push_back(*flag_iter - *onset_iter);
    }
    bool right_quarantine = false;
    for (const ctrl::MitigationEvent& e : r.mitigation_events) {
      if (e.kind == ctrl::MitigationEvent::Kind::kRestore) ++restores;
      if (e.kind != ctrl::MitigationEvent::Kind::kQuarantine) continue;
      ++quarantines;
      if (e.leaf == trial.leaf && e.uplink == trial.uplink) {
        right_quarantine = true;
      } else {
        ++false_quarantines;
      }
    }
    if (r.recovery.has_recovered()) recover_ms.push_back((r.recovery.recovered - trial.onset).ms());
    if (r.recovery.mitigated() && r.recovery.detected()) {
      mitigate_ms.push_back((r.recovery.first_quarantine - r.recovery.first_alert).ms());
    }

    std::vector<std::string> problems;
    const std::string tag = std::string{"trial "} + std::to_string(i) + " (" +
                            kKindNames[trial.kind] + "): ";
    if (r.iterations_completed != kIterations) problems.push_back(tag + "iterations not completed");
    if (r.fidelity.mode != fp::FidelityMode::kFlow || r.fidelity.packet_iterations != 0) {
      problems.push_back(tag + "did not run at flow fidelity");
    }
    if (!flag_iter) problems.push_back(tag + "injected link never flagged");
    if (!right_quarantine) problems.push_back(tag + "injected link not quarantined");
    if (!r.recovery.has_recovered()) problems.push_back(tag + "run never recovered");
    c.unit(problems);
  }
  t.end_units();
  probe.sample();
  std::cout << "# trials: " << trials << " (" << kinds[0] << " black-hole, " << kinds[1]
            << " random-drop, " << kinds[2] << " gilbert-elliott, " << kinds[3] << " flap)\n";

  report_setup(setup, probe, m);
  report_units(run, t, probe, m);
  m["exp.teardown_s"] = median(teardown);
  m["detect_ratio"] = static_cast<double>(detected) / trials;

  m["sim.events"] = static_cast<double>(events);
  m["collective.iterations"] = static_cast<double>(flow_iters + packet_iters);
  m["collective.schedule_ms"] = model.schedule_ms;
  m["flowpulse.predict_ms"] = model.predict_ms;
  m["flowpulse.checks"] = static_cast<double>(checks);
  m["flowpulse.alerts"] = static_cast<double>(alerts);
  m["flowpulse.flow_iters"] = static_cast<double>(flow_iters);
  m["flowpulse.packet_iters"] = static_cast<double>(packet_iters);
  m["flowpulse.demotions"] = static_cast<double>(demotions);
  m["flowpulse.flow_iter_us"] = median(flow_iter_us);
  m["flowpulse.clean_ratio"] = static_cast<double>(healthy_clean) / static_cast<double>(healthy);
  if (const auto p50 = tail_quantile(detect_iters, 0.5)) m["flowpulse.detect_iters_p50"] = *p50;
  m["ctrl.quarantines"] = static_cast<double>(quarantines);
  m["ctrl.restores"] = static_cast<double>(restores);
  if (const auto p50 = tail_quantile(mitigate_ms, 0.5)) m["ctrl.mitigate_ms_p50"] = *p50;
  if (const auto p50 = tail_quantile(recover_ms, 0.5)) m["ctrl.recover_ms_p50"] = *p50;
  m["ctrl.false_quarantine_ratio"] =
      quarantines == 0 ? 0.0 : static_cast<double>(false_quarantines) / quarantines;
}

}  // namespace fpbench
