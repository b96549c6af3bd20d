#pragma once

// Canned fixed-seed scenario whose report JSON must stay bit-identical
// across refactors that claim to be behavior-preserving (the strong-type
// conversion's correctness proof). The expected hash below was recorded
// from the pre-conversion tree; any change to it must be justified as an
// intentional behavior change in CHANGES.md.

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/report.h"
#include "exp/scenario.h"

namespace flowpulse::testing {

/// FNV-1a 64-bit over the report text. Stable, dependency-free.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// 8 leaves x 4 spines, one known-disconnected uplink, one silent gray
/// downlink, mitigation on: exercises detection, localization, quarantine,
/// re-baselining, and every section of exp::to_json.
[[nodiscard]] inline exp::ScenarioConfig golden_scenario_config() {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape.leaves = 8;
  cfg.fabric.shape.spines = 4;
  cfg.fabric.shape.hosts_per_leaf = 1;
  cfg.fabric.shape.parallel = 1;
  cfg.collective_bytes = core::Bytes{1u << 20};
  cfg.iterations = 8;
  cfg.seed = 42;
  cfg.preexisting.emplace_back(net::LeafId{2}, net::UplinkIndex{1});
  exp::NewFault fault;
  fault.leaf = net::LeafId{5};
  fault.uplink = net::UplinkIndex{3};
  fault.where = exp::NewFault::Where::kDownlink;
  fault.spec = net::FaultSpec::random_drop(0.10);
  cfg.new_faults.push_back(fault);
  cfg.mitigation.enabled = true;
  cfg.mitigation.restore_probe_after = 3;
  return cfg;
}

/// Multi-lane variant: same fabric split into parallel == 2 lanes, so the
/// uplink→(spine, lane) math, PortLoadMap lane indexing, and the
/// counter_scraper spine_of() alarm naming (string-identical to the uplink
/// index only when parallel == 1) are all on the pinned path. Its hash was
/// recorded once AFTER the strong-type conversion — the parallel>1 alarm
/// names intentionally changed there (see CHANGES.md PR 5) — and must stay
/// bit-identical from then on.
[[nodiscard]] inline exp::ScenarioConfig golden_parallel_scenario_config() {
  exp::ScenarioConfig cfg = golden_scenario_config();
  cfg.fabric.shape.parallel = 2;
  // Uplink indices now address (spine u/2, lane u%2); keep one fault per
  // lane parity so both lanes of a physical spine carry pinned traffic.
  cfg.preexisting.clear();
  cfg.preexisting.emplace_back(net::LeafId{2}, net::UplinkIndex{1});
  cfg.new_faults.clear();
  exp::NewFault fault;
  fault.leaf = net::LeafId{5};
  fault.uplink = net::UplinkIndex{6};
  fault.where = exp::NewFault::Where::kDownlink;
  fault.spec = net::FaultSpec::random_drop(0.10);
  cfg.new_faults.push_back(fault);
  return cfg;
}

/// Hash a run's JSON report. wall_seconds is the single wall-clock-derived
/// field; zero it so the hash is reproducible.
[[nodiscard]] inline std::uint64_t report_hash(exp::ScenarioResult result) {
  result.wall_seconds = 0.0;
  const std::string json =
      exp::to_json(result) + exp::alerts_to_json(result.detections) +
      exp::deviations_to_csv(result) +
      exp::mitigation_to_json(result.mitigation_events, result.recovery);
  return fnv1a64(json);
}

/// Run a scenario and hash its JSON report.
[[nodiscard]] inline std::uint64_t report_hash(const exp::ScenarioConfig& cfg) {
  exp::Scenario scenario{cfg};
  return report_hash(scenario.run());
}

[[nodiscard]] inline std::uint64_t golden_report_hash() {
  return report_hash(golden_scenario_config());
}

[[nodiscard]] inline std::uint64_t golden_parallel_report_hash() {
  return report_hash(golden_parallel_scenario_config());
}

}  // namespace flowpulse::testing
