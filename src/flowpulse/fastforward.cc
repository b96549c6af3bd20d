#include "flowpulse/fastforward.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "sim/audit.h"
#include "sim/rng.h"

namespace flowpulse::fp {
namespace {

// splitmix64 finalizer: decorrelates the per-(leaf, iteration) noise streams
// from one another and from every other consumer of the scenario seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Active picoseconds of a flapping fault in [0, t) past its start.
[[nodiscard]] std::int64_t flap_active_ps(std::int64_t t, std::int64_t period,
                                          std::int64_t on) {
  if (t <= 0) return 0;
  return (t / period) * on + std::min(t % period, on);
}

}  // namespace

FastForwardModel::FastForwardModel(const net::TopologyInfo& info, Config config)
    : info_{info}, config_{config} {}

double FastForwardModel::wire_bytes(core::Bytes payload) const {
  if (payload == core::Bytes{0}) return 0.0;
  const std::uint64_t segments =
      (payload.v() + config_.mtu_payload - 1) / config_.mtu_payload;
  return static_cast<double>(payload.v() + segments * config_.header_bytes.v());
}

void FastForwardModel::rebaseline(const collective::DemandMatrix& demand,
                                  const net::RoutingState& routing) {
  routing_ = &routing;
  const std::uint32_t uplinks = info_.uplinks_per_leaf();
  const std::uint32_t hosts = demand.hosts();
  cells_.clear();
  cell_begin_.assign(info_.leaves + 1, 0);
  port_begin_.assign(static_cast<std::size_t>(info_.leaves) * uplinks + 1, 0);
  // Destination leaf outermost. A cell still receives its (src host, dst
  // host) contributions in the order of a plain sweep over the demand
  // matrix, so every share sums to the same double; and since a leaf's
  // hosts are contiguous and valid uplinks ascend, each leaf's cells come
  // out in (sender, uplink) order without sorting.
  for (const net::LeafId dst_leaf : core::ids<net::LeafId>(info_.leaves)) {
    cell_begin_[dst_leaf.v()] = static_cast<std::uint32_t>(cells_.size());
    const std::uint32_t dst_first = dst_leaf.v() * info_.hosts_per_leaf;
    const std::uint32_t dst_end = std::min(dst_first + info_.hosts_per_leaf, hosts);
    net::LeafId group_leaf{info_.leaves};  // sender leaf whose cells are open
    std::size_t group = 0;                 // index of its first cell
    for (const net::HostId src : core::ids<net::HostId>(hosts)) {
      const net::LeafId src_leaf = info_.leaf_of(src);
      if (src_leaf == dst_leaf) continue;
      for (std::uint32_t h = dst_first; h < dst_end; ++h) {
        const core::Bytes d = demand.at(src, net::HostId{h});
        if (d == core::Bytes{0}) continue;
        const auto& valid = routing.valid_uplinks(src_leaf, dst_leaf);
        if (valid.empty()) continue;
        const double share = wire_bytes(d) / static_cast<double>(valid.size());
        if (group_leaf != src_leaf) {
          // The sender leaf's first demand opens one cell per valid uplink;
          // every later host pair of the leaf pair shares the same set.
          group_leaf = src_leaf;
          group = cells_.size();
          for (const net::UplinkIndex u : valid) cells_.push_back(Cell{src_leaf, u, 0.0});
        }
        for (std::size_t k = 0; k < valid.size(); ++k) cells_[group + k].share += share;
      }
    }
  }
  cell_begin_[info_.leaves] = static_cast<std::uint32_t>(cells_.size());

  // Transpose into per-port sender lists: count, prefix-sum, then scatter
  // in (sender, uplink) order so each port's senders ascend.
  const auto port = [uplinks](net::LeafId l, net::UplinkIndex u) {
    return static_cast<std::size_t>(l.v()) * uplinks + u.v();
  };
  for (const net::LeafId l : core::ids<net::LeafId>(info_.leaves)) {
    for (std::uint32_t c = cell_begin_[l.v()]; c < cell_begin_[l.v() + 1]; ++c) {
      ++port_begin_[port(l, cells_[c].uplink) + 1];
    }
  }
  for (std::size_t p = 1; p < port_begin_.size(); ++p) port_begin_[p] += port_begin_[p - 1];
  port_src_.resize(cells_.size());
  std::vector<std::uint32_t> next(port_begin_.begin(), port_begin_.end() - 1);
  for (const net::LeafId l : core::ids<net::LeafId>(info_.leaves)) {
    for (std::uint32_t c = cell_begin_[l.v()]; c < cell_begin_[l.v() + 1]; ++c) {
      port_src_[next[port(l, cells_[c].uplink)]++] = cells_[c].src;
    }
  }
}

double FastForwardModel::stationary_drop(const net::FaultSpec& spec) {
  using Kind = net::FaultSpec::Kind;
  switch (spec.kind) {
    case Kind::kNone:
      return 0.0;
    case Kind::kDisconnect:
    case Kind::kBlackHole:
      return 1.0;
    case Kind::kRandomDrop:
      return spec.drop_rate;
    case Kind::kGilbertElliott: {
      const double denom = spec.good_to_bad + spec.bad_to_good;
      const double bad_frac = denom > 0.0 ? spec.good_to_bad / denom : 0.0;
      return bad_frac * spec.drop_rate + (1.0 - bad_frac) * spec.good_loss;
    }
  }
  return 0.0;
}

double FastForwardModel::active_fraction(const net::FaultSpec& spec, sim::Time ws,
                                         sim::Time we) {
  if (spec.kind == net::FaultSpec::Kind::kNone || we <= ws) return 0.0;
  const sim::Time a = ws < spec.start ? spec.start : ws;
  const sim::Time b = we < spec.end ? we : spec.end;
  if (a >= b) return 0.0;
  const double window = static_cast<double>((we - ws).ps());
  if (spec.flap_period <= sim::Time::zero()) {
    return static_cast<double>((b - a).ps()) / window;
  }
  const std::int64_t period = spec.flap_period.ps();
  const std::int64_t on = std::min(spec.flap_on.ps(), period);
  const std::int64_t active = flap_active_ps((b - spec.start).ps(), period, on) -
                              flap_active_ps((a - spec.start).ps(), period, on);
  return static_cast<double>(active) / window;
}

double FastForwardModel::survival(net::LeafId src, net::UplinkIndex u,
                                  net::LeafId dst) const {
  double w = 1.0;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const FlowFault& f = faults_[i];
    if (f.uplink != u) continue;
    const bool up = f.uplink_dir && f.leaf == src;
    const bool down = f.downlink_dir && f.leaf == dst;
    if (up) w *= 1.0 - drop_[i];
    if (down) w *= 1.0 - drop_[i];
  }
  return w;
}

void FastForwardModel::audit_cells([[maybe_unused]] net::LeafId leaf,
                                   [[maybe_unused]] net::IterIndex iteration,
                                   [[maybe_unused]] sim::Time at) const {
#if FP_AUDIT_ENABLED
  // Each sender's cells must be exactly the pair's valid uplinks under the
  // current routing: a re-spray target outside them would vanish from the
  // port sums, a cell on a quarantined uplink would feed a dead port. A
  // mismatch means a routing change without rebaseline().
  const std::uint32_t end = cell_begin_[leaf.v() + 1];
  for (std::uint32_t c = cell_begin_[leaf.v()]; c < end;) {
    const net::LeafId src = cells_[c].src;
    const auto& valid = routing_->valid_uplinks(src, leaf);
    bool match = true;
    std::size_t k = 0;
    for (; c < end && cells_[c].src == src; ++c, ++k) {
      match = match && k < valid.size() && valid[k] == cells_[c].uplink;
    }
    FP_AUDIT(match && k == valid.size(), "flow-cell-index", "leaf" + std::to_string(leaf.v()),
             iteration.v(), at.ps(),
             "sender leaf" + std::to_string(src.v()) + " has " + std::to_string(k) +
                 " cells but routing has " + std::to_string(valid.size()) +
                 " valid uplinks, or they differ: rebaseline() missed a routing change");
  }
#endif
}

void FastForwardModel::synthesize(net::LeafId leaf, net::IterIndex iteration,
                                  sim::Time window_start, sim::Time window_end,
                                  IterationRecord& out) {
  assert(routing_ != nullptr && "rebaseline() before synthesize()");
  audit_cells(leaf, iteration, window_start);
  const std::uint32_t uplinks = info_.uplinks_per_leaf();
  out.leaf = leaf;
  out.iteration = iteration;
  out.bytes.resize(uplinks);
  out.by_src.resize(uplinks);
  for (std::vector<double>& row : out.by_src) row.assign(info_.leaves, 0.0);
  const Cell* const first = cells_.data() + cell_begin_[leaf.v()];
  const Cell* const last = cells_.data() + cell_begin_[leaf.v() + 1];

  bool attenuate = false;
  if (config_.fault_model) {
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      const net::FaultSpec& spec = faults_[i].spec;
      drop_[i] = stationary_drop(spec) * active_fraction(spec, window_start, window_end);
      attenuate = attenuate || drop_[i] > 0.0;
    }
  }
  if (!attenuate) {
    for (const Cell* c = first; c != last; ++c) out.by_src[c->uplink.v()][c->src.v()] = c->share;
  } else {
    // Attenuate each cell by its survival weight, then re-spray a sender's
    // lost bytes uniformly over the pair's valid uplinks (retransmit
    // resurfacing, first order). A sender's cells are adjacent, in uplink
    // order.
    for (const Cell* c = first; c != last;) {
      const net::LeafId src = c->src;
      double lost = 0.0;
      for (; c != last && c->src == src; ++c) {
        const double w = survival(src, c->uplink, leaf);
        out.by_src[c->uplink.v()][src.v()] = c->share * w;
        lost += c->share * (1.0 - w);
      }
      if (lost > 0.0) {
        const auto& valid = routing_->valid_uplinks(src, leaf);
        if (!valid.empty()) {
          const double refill = lost / static_cast<double>(valid.size());
          for (const net::UplinkIndex u : valid) out.by_src[u.v()][src.v()] += refill;
        }
      }
    }
  }

  const std::uint32_t* const port_begin =
      port_begin_.data() + static_cast<std::size_t>(leaf.v()) * uplinks;
  if (config_.noise_rel > 0.0) {
    // One deterministic stream per (leaf, iteration); draws happen in fixed
    // (uplink, sender) order so the record is reproducible from the seed.
    sim::Rng rng{mix(config_.seed ^ mix((static_cast<std::uint64_t>(leaf.v()) << 32) |
                                        iteration.v()))};
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      for (std::uint32_t i = port_begin[u]; i < port_begin[u + 1]; ++i) {
        double& v = out.by_src[u][port_src_[i].v()];
        if (v <= 0.0) continue;
        v = std::max(0.0, v * (1.0 + config_.noise_rel * rng.normal()));
      }
    }
  }

  double total_bytes = 0.0;
  for (std::uint32_t u = 0; u < uplinks; ++u) {
    double t = 0.0;
    for (std::uint32_t i = port_begin[u]; i < port_begin[u + 1]; ++i) {
      t += out.by_src[u][port_src_[i].v()];
    }
    out.bytes[u] = t;
    total_bytes += t;
  }
  const double wire_mtu = static_cast<double>(config_.mtu_payload + config_.header_bytes.v());
  out.packets = static_cast<std::uint64_t>(total_bytes / wire_mtu + 0.5);
}

sim::Time FastForwardModel::estimate_iteration_time(const collective::DemandMatrix& demand,
                                                    core::GbitsPerSec host_rate) const {
  double busiest = 0.0;
  const std::uint32_t hosts = demand.hosts();
  for (const net::HostId a : core::ids<net::HostId>(hosts)) {
    double tx = 0.0;
    double rx = 0.0;
    for (const net::HostId b : core::ids<net::HostId>(hosts)) {
      tx += wire_bytes(demand.at(a, b));
      rx += wire_bytes(demand.at(b, a));
    }
    busiest = std::max({busiest, tx, rx});
  }
  // Serialization of the busiest endpoint plus 25% pipeline/ACK slack; a
  // floor keeps zero-demand iterations from collapsing the clock.
  const sim::Time serial =
      core::serialization_time(core::Bytes{static_cast<std::uint64_t>(busiest)}, host_rate);
  const sim::Time est = sim::Time::picoseconds(serial.ps() + serial.ps() / 4);
  return est > sim::Time::microseconds(1) ? est : sim::Time::microseconds(1);
}

}  // namespace flowpulse::fp
