#include "two_level.h"

#include "flowpulse/analytical_model.h"
#include "net/packet.h"
#include "net/routing.h"

namespace fpbench {

using namespace flowpulse;

TwoLevelModel time_two_level_model(const net::TopologyInfo& shape, core::Bytes bytes,
                                   std::uint32_t mtu_payload, std::uint32_t reps, Tracer& t) {
  TwoLevelModel out;
  std::vector<double> sched_ms, pred_ms;
  for (std::uint32_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope span{t, "exp.make_schedule"};
      out.schedule =
          exp::make_schedule(collective::CollectiveKind::kRingReduceScatter, shape, bytes);
    }
    sched_ms.push_back(1e3 * since(t0));
  }
  out.demand = collective::DemandMatrix::from_schedule(out.schedule, exp::all_hosts_ring(shape),
                                                       shape.num_hosts());
  const fp::AnalyticalModel model{shape, mtu_payload, net::kHeaderBytes};
  const net::RoutingState routing{shape.leaves, shape.uplinks_per_leaf()};
  for (std::uint32_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope span{t, "fp.AnalyticalModel.predict"};
      out.prediction = model.predict(out.demand, routing);
    }
    pred_ms.push_back(1e3 * since(t0));
  }
  out.schedule_ms = median(sched_ms);
  out.predict_ms = median(pred_ms);
  return out;
}

Cable::Cable(net::LeafId l, net::UplinkIndex u, const net::TopologyInfo& shape,
             const collective::DemandMatrix& demand)
    : leaf{l}, uplink{u}, receives_from_leaf(shape.leaves, 0) {
  for (std::uint32_t src = 0; src < shape.num_hosts(); ++src) {
    if (shape.leaf_of(net::HostId{src}) != l) continue;
    for (std::uint32_t dst = 0; dst < shape.num_hosts(); ++dst) {
      if (demand.at(net::HostId{src}, net::HostId{dst}) > core::Bytes{0}) {
        receives_from_leaf[shape.leaf_of(net::HostId{dst}).v()] = 1;
      }
    }
  }
}

bool Cable::touches(net::LeafId x, net::UplinkIndex u) const {
  return u == uplink && (x == leaf || receives_from_leaf[x.v()] != 0);
}

PortTally tally(const std::vector<fp::DetectionResult>& results, std::uint32_t uplinks,
                std::uint32_t iterations, const Cable& cable) {
  PortTally out;
  out.cable_flagged.assign(iterations, 0);
  for (const fp::DetectionResult& r : results) {
    std::vector<std::uint8_t> alerted(uplinks, 0);
    for (const fp::PortAlert& a : r.alerts) {
      alerted[a.uplink.v()] = 1;
      if (cable.touches(r.leaf, a.uplink) && r.iteration.v() < iterations) {
        out.cable_flagged[r.iteration.v()] = 1;
      }
    }
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      ++out.checks;
      out.alerts += alerted[u];
      if (cable.touches(r.leaf, net::UplinkIndex{u})) continue;
      ++out.healthy_checks;
      out.healthy_clean += alerted[u] == 0 ? 1 : 0;
    }
  }
  return out;
}

}  // namespace fpbench
