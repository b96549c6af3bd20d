#pragma once

#include <cstdint>
#include <vector>

#include "collective/demand_matrix.h"
#include "core/units.h"
#include "flowpulse/monitor.h"
#include "net/fault.h"
#include "net/routing.h"
#include "net/topology_info.h"
#include "sim/time.h"

namespace flowpulse::fp {

/// Flow-level fast-forward of one collective iteration: synthesizes the
/// per-port × sender byte counters every PortMonitor would have finalized,
/// without simulating a single packet.
///
/// The healthy baseline is the analytical model's expectation (d/(s−f)
/// spray shares in wire bytes, identical math to AnalyticalModel::predict —
/// EXPERIMENTS.md FIG2 measures it within 0.2% of packet simulation).
/// On top of it:
///
///  * Silent faults (optional, kFlow mode) attenuate each (sender, uplink,
///    receiver) share by a first-order survival weight
///    w = (1 − p_up·duty) · (1 − p_down·duty), where p is the fault kind's
///    stationary drop probability and duty its active fraction of the
///    iteration window (flap-aware). The dropped share is re-sprayed
///    uniformly over the pair's valid uplinks — the reliable transport
///    retransmits lost segments and APS spreads the retransmissions — so
///    the faulty port shows the paper's shortfall and its peers the
///    matching surplus. Second-order effects (retransmit headers, repeated
///    loss) are deliberately ignored; packet mode owns those windows.
///
///  * Deterministic multiplicative noise (seeded per leaf × iteration)
///    models spray imbalance so downstream detector statistics stay
///    honest. Zero noise_rel yields the exact expectation.
///
/// # Cell index
///
/// The baseline is kept sparse: for each destination leaf, only its
/// non-zero (sender, uplink, share) cells — on a ring, one sender's valid
/// uplinks out of (leaves − 1) × uplinks. rebaseline() builds them flat, in
/// one sweep over the demand matrix: a CSR offsets array per leaf into one
/// cell array in (sender, uplink) order, plus a second CSR per (leaf,
/// uplink) port listing its senders in ascending order. Synthesis then
/// visits only those cells.
///
/// # Draw-order contract
///
/// The synthesized record is byte-identical to a dense sweep over every
/// (sender, uplink) of the leaf, because the sparse visit keeps that
/// sweep's floating-point order: each sender's lost bytes sum over its
/// cells in uplink order; noise is drawn in (uplink, sender) order, one
/// `Rng::normal()` per cell whose value is > 0 (ziggurat; a draw may
/// consume more than one 64-bit word); port sums add the port's
/// cells in sender order (the dense sweep only adds exact zeros beside
/// them). A change to any of these orders changes the noise stream.
///
/// The synthesis must be re-baselined whenever routing changes (quarantine
/// / restore), exactly like the detector's prediction; audit builds check
/// every sender's cells against the current routing on each synthesis.
///
/// synthesize() overwrites a caller-owned record, so one record serves
/// every leaf and iteration without allocating. A consumer handed that
/// record (FlowPulseSystem::ingest and its record hook) may read it only
/// until it returns, and must copy what it keeps.
class FastForwardModel {
 public:
  struct Config {
    std::uint32_t mtu_payload = 4096;
    core::Bytes header_bytes{64};
    double noise_rel = 0.0;
    bool fault_model = false;
    std::uint64_t seed = 1;
  };

  /// One silent fault the flow-level survival model should account for.
  struct FlowFault {
    net::LeafId leaf{};
    net::UplinkIndex uplink{};
    bool uplink_dir = true;    ///< affects traffic the leaf sends up
    bool downlink_dir = true;  ///< affects traffic delivered down to the leaf
    net::FaultSpec spec{};
  };

  FastForwardModel(const net::TopologyInfo& info, Config config);

  void set_faults(std::vector<FlowFault> faults) {
    faults_ = std::move(faults);
    drop_.assign(faults_.size(), 0.0);
  }

  /// Recompute the healthy expectation (the cell index) for the current
  /// routing state. Must be called before the first synthesize() and after
  /// every routing change; keeps a reference to `routing` for per-pair
  /// re-spray sets.
  void rebaseline(const collective::DemandMatrix& demand, const net::RoutingState& routing);

  /// Overwrite `out` with what `leaf`'s PortMonitor would have finalized
  /// for the iteration spanning [window_start, window_end). `out` may hold
  /// anything, of any shape; once sized it is refilled without allocating.
  void synthesize(net::LeafId leaf, net::IterIndex iteration, sim::Time window_start,
                  sim::Time window_end, IterationRecord& out);

  /// Analytic iteration-duration estimate: serialization of the busiest
  /// host's wire bytes at `host_rate`, plus pipeline slack. Used by kFlow
  /// mode, where no packet-measured duration exists.
  [[nodiscard]] sim::Time estimate_iteration_time(const collective::DemandMatrix& demand,
                                                  core::GbitsPerSec host_rate) const;

  /// Stationary drop probability of a fault kind (flap/duty excluded).
  [[nodiscard]] static double stationary_drop(const net::FaultSpec& spec);
  /// Fraction of [window_start, window_end) during which `spec` is active.
  [[nodiscard]] static double active_fraction(const net::FaultSpec& spec,
                                              sim::Time window_start, sim::Time window_end);

 private:
  /// One non-zero baseline cell of a destination leaf: `share` wire bytes
  /// from sender leaf `src` arrive on `uplink`.
  struct Cell {
    net::LeafId src{};
    net::UplinkIndex uplink{};
    double share = 0.0;
  };

  [[nodiscard]] double wire_bytes(core::Bytes payload) const;
  /// Survival weight of `src`'s traffic to `dst` over uplink `u`, from this
  /// window's drop weights in drop_.
  [[nodiscard]] double survival(net::LeafId src, net::UplinkIndex u, net::LeafId dst) const;
  void audit_cells(net::LeafId leaf, net::IterIndex iteration, sim::Time at) const;

  net::TopologyInfo info_;
  Config config_;
  std::vector<FlowFault> faults_;
  /// Per fault, stationary drop × active fraction of the window being
  /// synthesized; refilled once per synthesize() call.
  std::vector<double> drop_;
  /// Leaf l's cells are cells_[cell_begin_[l], cell_begin_[l + 1]), in
  /// (sender, uplink) order.
  std::vector<std::uint32_t> cell_begin_;
  std::vector<Cell> cells_;
  /// Port (l, u)'s senders are port_src_[port_begin_[p], port_begin_[p + 1])
  /// with p = l × uplinks + u, ascending.
  std::vector<std::uint32_t> port_begin_;
  std::vector<net::LeafId> port_src_;
  const net::RoutingState* routing_ = nullptr;
};

}  // namespace flowpulse::fp
