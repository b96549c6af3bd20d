#pragma once

// Helpers shared by the workloads on the two-level fat tree (packet,
// flow campaign, daemon stream): timed calls into exp::make_schedule and
// the analytical model, and the fault-site bookkeeping of one cable.

#include <cstdint>
#include <vector>

#include "bench.h"
#include "collective/demand_matrix.h"
#include "collective/schedule.h"
#include "exp/scenario.h"
#include "flowpulse/port_load.h"
#include "net/topology_info.h"

namespace fpbench {

/// One Ring-ReduceScatter's schedule, demand and analytical prediction,
/// with the median host time of the exp::make_schedule and
/// AnalyticalModel::predict calls that produced them.
struct TwoLevelModel {
  flowpulse::collective::CommSchedule schedule;
  flowpulse::collective::DemandMatrix demand{0};
  flowpulse::fp::PortLoadMap prediction{0, 0};
  double schedule_ms = 0.0;
  double predict_ms = 0.0;
};

/// Calls make_schedule and predict `reps` times each (spans when tracing).
[[nodiscard]] TwoLevelModel time_two_level_model(const flowpulse::net::TopologyInfo& shape,
                                                 flowpulse::core::Bytes bytes,
                                                 std::uint32_t mtu_payload, std::uint32_t reps,
                                                 Tracer& t);

/// The monitored ports a cable (leaf, uplink) can starve: the leaf's own
/// ingress port from that spine (downlink direction) and, for the uplink
/// direction, the same port index at every leaf the leaf sends to.
struct Cable {
  flowpulse::net::LeafId leaf{};
  flowpulse::net::UplinkIndex uplink{};
  std::vector<std::uint8_t> receives_from_leaf;  ///< [leaf] demand from `leaf` > 0

  Cable(flowpulse::net::LeafId l, flowpulse::net::UplinkIndex u,
        const flowpulse::net::TopologyInfo& shape,
        const flowpulse::collective::DemandMatrix& demand);

  /// Is (leaf x, uplink u) a port this cable's fault can move?
  [[nodiscard]] bool touches(flowpulse::net::LeafId x, flowpulse::net::UplinkIndex u) const;
};

/// Per-port tallies of a list of detection results against one cable.
struct PortTally {
  std::uint64_t checks = 0;          ///< (port, iteration) checks
  std::uint64_t alerts = 0;          ///< alerted (port, iteration) checks
  std::uint64_t healthy_checks = 0;  ///< checks on ports the cable cannot move
  std::uint64_t healthy_clean = 0;   ///< ... that raised no alert
  /// iteration → did any alert land on a port of the cable?
  std::vector<std::uint8_t> cable_flagged;
};
[[nodiscard]] PortTally tally(const std::vector<flowpulse::fp::DetectionResult>& results,
                              std::uint32_t uplinks, std::uint32_t iterations,
                              const Cable& cable);

}  // namespace fpbench
