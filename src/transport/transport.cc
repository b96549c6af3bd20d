#include "transport/transport.h"

#include <algorithm>
#include <cassert>

namespace flowpulse::transport {

Transport::Transport(sim::Simulator& simulator, net::Host& host, TransportConfig config)
    : sim_{simulator}, host_{host}, config_{config} {
  host_.set_rx_handler([this](const net::Packet& p) { on_packet(p); });
  host_.nic().set_tx_hook([this](const net::Packet& p, net::EgressPort::TxEvent) {
    // A drop on the host→leaf link still starts the RTO clock: from the
    // sender's perspective the segment went out and was never acked.
    on_wire(p);
  });
}

std::uint64_t Transport::send_message(const MessageSpec& spec, SendCompleteFn on_complete) {
  assert(spec.bytes > core::Bytes{0});
  SeqWindow<SendState>& sends = peers_.add(spec.dst).sends;
  const std::uint64_t msg_id = sends.end();
  SendState& st = sends.extend_to(msg_id);
  st.spec = spec;
  st.msg_id = msg_id;
  st.total_segments = static_cast<std::uint32_t>(
      (spec.bytes.v() + config_.mtu_payload - 1) / config_.mtu_payload);
  st.next_unsent = 0;
  st.acked = 0;
  st.outstanding = 0;
  st.segs.assign(st.total_segments, Segment{});
  st.on_complete = std::move(on_complete);
  st.done = false;
  pump(st);
  return msg_id;
}

Transport::SendState* Transport::find_send(net::HostId dst, std::uint64_t msg_id) {
  Peer* peer = peers_.find(dst);
  if (peer == nullptr) return nullptr;
  SendState* st = peer->sends.find(msg_id);
  return st != nullptr && !st->done ? st : nullptr;
}

std::size_t Transport::live_sends() const {
  std::size_t n = 0;
  peers_.for_each([&n](net::HostId, const Peer& peer) { n += peer.sends.size(); });
  return n;
}

std::size_t Transport::live_recvs() const {
  std::size_t n = 0;
  peers_.for_each([&n](net::HostId, const Peer& peer) { n += peer.recvs.size(); });
  return n;
}

std::uint32_t Transport::segment_payload(const SendState& st, std::uint32_t seq) const {
  const std::uint64_t offset = static_cast<std::uint64_t>(seq) * config_.mtu_payload;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(config_.mtu_payload, st.spec.bytes.v() - offset));
}

void Transport::pump(SendState& st) {
  while (st.outstanding < config_.window && st.next_unsent < st.total_segments) {
    transmit_segment(st, st.next_unsent);
    ++st.next_unsent;
    ++st.outstanding;
    ++stats_.data_packets_sent;
  }
  FP_AUDIT(st.outstanding <= config_.window, "message-accounting",
           "host" + std::to_string(host_.id().v()) + ".transport", st.msg_id, sim_.now().ps(),
           "window overrun: outstanding=" + std::to_string(st.outstanding) + " window=" +
               std::to_string(config_.window));
}

void Transport::transmit_segment(SendState& st, std::uint32_t seq) {
  net::Packet p;
  p.flow_id = st.spec.flow_id;
  p.src = host_.id();
  p.dst = st.spec.dst;
  p.msg_id = st.msg_id;
  p.msg_bytes = st.spec.bytes;
  p.total_segments = st.total_segments;
  p.seq = seq;
  p.size_bytes = core::Bytes{segment_payload(st, seq)} + net::kHeaderBytes;
  p.kind = net::PacketKind::kData;
  p.priority = st.spec.priority;
  p.retx = st.segs[seq].attempts;
  ++st.segs[seq].attempts;
  host_.nic().enqueue(p);
}

sim::Time Transport::effective_rto() const {
  if (!config_.adaptive_rto) return config_.rto;
  if (srtt_ == sim::Time::zero()) return config_.rto * config_.initial_rto_multiplier;
  const sim::Time adaptive = srtt_ + 4 * rttvar_;
  return adaptive > config_.rto ? adaptive : config_.rto;
}

void Transport::on_wire(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData || p.src != host_.id()) return;
  SendState* st = find_send(p.dst, p.msg_id);
  if (st == nullptr || st->segs[p.seq].acked) return;
  st->segs[p.seq].wire_time = sim_.now();
  const int shift = std::min<int>(p.retx, config_.max_backoff_shift);
  const sim::Time timeout = sim::Time::picoseconds(effective_rto().ps() << shift);
  const std::uint8_t attempt = p.retx;
  const net::HostId dst = p.dst;
  // The low 32 bits of the id keep the capture within InlineFn's budget;
  // on_rto recovers the full id from the peer's window.
  const auto msg_id_low = static_cast<std::uint32_t>(p.msg_id);
  const std::uint32_t seq = p.seq;
  sim_.schedule_in(timeout, [this, dst, msg_id_low, seq, attempt] {
    on_rto(dst, msg_id_low, seq, attempt);
  });
}

void Transport::on_rto(net::HostId dst, std::uint32_t msg_id_low, std::uint32_t seq,
                       std::uint8_t attempt) {
  Peer* peer = peers_.find(dst);
  if (peer == nullptr) return;
  // Live ids span less than 2^32 above the window base, so the low bits pick
  // exactly one of them; a retired id maps past the window's end.
  const std::uint64_t base = peer->sends.base();
  const std::uint64_t msg_id =
      base + static_cast<std::uint32_t>(msg_id_low - static_cast<std::uint32_t>(base));
  SendState* st = peer->sends.find(msg_id);
  if (st == nullptr || st->done || st->segs[seq].acked) return;  // stale: already acked
  if (st->segs[seq].attempts != attempt + 1) return;  // stale timer: newer attempt pending
  ++stats_.retx_packets_sent;
  FP_TRACE(sim_, kRtoFire, "", host_.id().v(), seq, msg_id, static_cast<double>(attempt), "");
  transmit_segment(*st, seq);
}

void Transport::on_packet(const net::Packet& p) {
  switch (p.kind) {
    case net::PacketKind::kData:
      on_data(p);
      break;
    case net::PacketKind::kAck:
      on_ack(p);
      break;
    case net::PacketKind::kProbe:
      if (probe_handler_) probe_handler_(p);
      break;
  }
}

void Transport::on_data(const net::Packet& p) {
  // Update receive state first so the ACK can carry a SACK bitmap of the
  // segments below p.seq that have also arrived. A message below the
  // peer's watermark completed earlier and has retired.
  Peer& peer = peers_.add(p.src);
  RecvState* rs = p.msg_id < peer.recvs.base() ? nullptr : &peer.recvs.extend_to(p.msg_id);
  const bool complete_before = rs == nullptr || rs->complete;
  bool duplicate = complete_before;
  if (!complete_before) {
    if (rs->got.empty()) {
      rs->total_segments = p.total_segments;
      rs->got.assign(p.total_segments, 0);
    }
    if (rs->got[p.seq]) {
      duplicate = true;
    } else {
      rs->got[p.seq] = 1;
      ++rs->received;
      rs->complete = rs->received == rs->total_segments;
    }
  }
  if (duplicate) ++stats_.duplicate_data_received;
  const bool completed_now = !complete_before && rs->complete;

  // Always acknowledge — late retransmits of a completed message must be
  // acked or the sender never finishes.
  net::Packet ack;
  ack.flow_id = p.flow_id;
  ack.src = host_.id();
  ack.dst = p.src;
  ack.msg_id = p.msg_id;
  ack.seq = p.seq;
  ack.size_bytes = net::kControlPacketBytes;
  ack.kind = net::PacketKind::kAck;
  ack.priority = net::Priority::kControl;
  std::uint64_t bitmap = 0;
  for (std::uint32_t i = 1; i <= 64 && i <= p.seq; ++i) {
    if (rs == nullptr || rs->complete || rs->got[p.seq - i]) bitmap |= 1ull << (i - 1);
  }
  ack.ack_bitmap = bitmap;
  host_.nic().enqueue(ack);
  ++stats_.acks_sent;

  if (!completed_now) return;
  ++stats_.messages_received;
  peer.recvs.pop_front_while([](const RecvState& r) { return r.complete; });
#if FP_AUDIT_ENABLED
  const std::size_t slot = p.msg_id - kFirstMsgId;
  if (peer.audit.size() <= slot) peer.audit.resize(slot + 1);
  AuditDelivery& rec = peer.audit[slot];
  rec.flow = p.flow_id;
  rec.bytes = p.msg_bytes;
  ++rec.deliveries;
  FP_AUDIT(rec.deliveries == 1, "message-exactly-once",
           "host" + std::to_string(host_.id().v()) + ".transport", p.msg_id, sim_.now().ps(),
           "message from host" + std::to_string(p.src.v()) + " delivered " +
               std::to_string(rec.deliveries) + " times");
#endif
  // Handlers may send (adding peers), so no peer reference is used below.
  const RecvInfo info{p.src, host_.id(), p.msg_id, p.flow_id, p.msg_bytes};
  for (const RecvHandler& handler : recv_handlers_) handler(info);
}

#if FP_AUDIT_ENABLED
void Transport::audit_redeliver(net::HostId src, std::uint64_t msg_id) {
  Peer* peer = peers_.find(src);
  if (peer == nullptr || msg_id < kFirstMsgId || msg_id - kFirstMsgId >= peer->audit.size()) {
    return;
  }
  AuditDelivery& rec = peer->audit[msg_id - kFirstMsgId];
  if (rec.deliveries == 0) return;
  ++rec.deliveries;
  FP_AUDIT(rec.deliveries == 1, "message-exactly-once",
           "host" + std::to_string(host_.id().v()) + ".transport", msg_id, sim_.now().ps(),
           "message from host" + std::to_string(src.v()) + " delivered " +
               std::to_string(rec.deliveries) + " times");
  const RecvInfo info{src, host_.id(), msg_id, rec.flow, rec.bytes};
  for (const RecvHandler& handler : recv_handlers_) handler(info);
}
#endif

void Transport::on_ack(const net::Packet& p) {
  SendState* found = find_send(p.src, p.msg_id);
  if (found == nullptr) return;  // retired, or acked in full already
  SendState& st = *found;

  // RTT sampling with Karn's rule: only an unambiguous (first-attempt,
  // not-yet-acked) direct acknowledgement contributes; RFC 6298 smoothing.
  const Segment& direct = st.segs[p.seq];
  if (!direct.acked && direct.attempts == 1 && direct.wire_time > sim::Time::zero()) {
    const sim::Time sample = sim_.now() - direct.wire_time;
    if (srtt_ == sim::Time::zero()) {
      srtt_ = sample;
      rttvar_ = sim::Time::picoseconds(sample.ps() / 2);
    } else {
      const std::int64_t err = sample.ps() - srtt_.ps();
      const std::int64_t abs_err = err < 0 ? -err : err;
      rttvar_ = sim::Time::picoseconds((3 * rttvar_.ps() + abs_err) / 4);
      srtt_ = sim::Time::picoseconds(srtt_.ps() + err / 8);
    }
  }

  auto mark_acked = [&st](std::uint32_t seq) {
    Segment& seg = st.segs[seq];
    if (seg.acked || seg.attempts == 0) return;
    seg.acked = true;
    ++st.acked;
    assert(st.outstanding > 0);
    --st.outstanding;
  };
  mark_acked(p.seq);
  // SACK bitmap: segments below p.seq the receiver also holds. This keeps
  // a lost ACK from looking like a lost data segment.
  for (std::uint32_t i = 1; i <= 64 && i <= p.seq; ++i) {
    if (p.ack_bitmap & (1ull << (i - 1))) mark_acked(p.seq - i);
  }

  if (st.acked == st.total_segments) {
    st.done = true;
    FP_AUDIT(st.outstanding == 0 && st.next_unsent == st.total_segments,
             "message-accounting", "host" + std::to_string(host_.id().v()) + ".transport",
             st.msg_id, sim_.now().ps(),
             "completed with outstanding=" + std::to_string(st.outstanding) +
                 " next_unsent=" + std::to_string(st.next_unsent) + " of " +
                 std::to_string(st.total_segments) + " segments");
    ++stats_.messages_sent;
    // Retire before the callback, which may send (and so add peers).
    const SendCompleteFn on_complete = std::move(st.on_complete);
    st.on_complete = nullptr;
    const std::uint64_t msg_id = st.msg_id;
    peers_.find(p.src)->sends.pop_front_while([](const SendState& s) { return s.done; });
    if (on_complete) on_complete(msg_id);
    return;
  }
  pump(st);
}

}  // namespace flowpulse::transport
