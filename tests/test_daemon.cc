// The flowpulsed subsystem, tested without sockets where possible:
//  * codec hardening — every message round-trips bit-exactly, and hostile
//    bytes (truncation, oversized prefixes, unknown opcodes, absurd
//    dimensions, fuzzed frames) yield protocol errors, never crashes;
//  * engine semantics — registration, topology validation, shard
//    ownership, QUIT/SHUTDOWN, driven frame-by-frame and deterministically;
//  * verdict determinism — the same recorded stream through 1, 2 and 4
//    shard engines merges to byte-identical fabric verdicts, and a replayed
//    simulator stream reproduces the in-simulator verdict exactly;
//  * socket smokes — a real epoll server on an ephemeral port, driven by
//    the blocking client, plus one raw client that never reads (the only
//    tests that touch fds).
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/stream_file.h"
#include "daemon/verdict.h"
#include "exp/scenario.h"

namespace flowpulse::daemon {
namespace {

net::TopologyInfo small_topo() { return net::TopologyInfo{4, 2, 1, 1}; }

Hello small_hello() {
  Hello h;
  h.topo = small_topo();
  h.first_leaf = net::LeafId{0};
  h.leaf_count = 4;
  return h;
}

fp::IterationRecord small_record(std::uint32_t leaf, std::uint32_t iter) {
  const net::TopologyInfo t = small_topo();
  fp::IterationRecord rec;
  rec.leaf = net::LeafId{leaf};
  rec.iteration = net::IterIndex{iter};
  rec.bytes.assign(t.uplinks_per_leaf(), 0.0);
  rec.by_src.assign(t.uplinks_per_leaf(), std::vector<double>(t.leaves, 0.0));
  for (std::uint32_t u = 0; u < t.uplinks_per_leaf(); ++u) {
    for (std::uint32_t src = 0; src < t.leaves; ++src) {
      if (src == leaf) continue;
      // Deliberately awkward doubles: the codec must round-trip raw bits.
      const double v = 1e6 / 3.0 + 0.1 * u + 1e-9 * src;
      rec.by_src[u][src] = v;
      rec.bytes[u] += v;
    }
  }
  rec.packets = 7;
  return rec;
}

/// A baseline that matches small_record() exactly — ingesting those
/// records against it must stay clean.
fp::PortLoadMap matching_prediction() {
  const net::TopologyInfo t = small_topo();
  fp::PortLoadMap map{t.leaves, t.uplinks_per_leaf()};
  for (std::uint32_t l = 0; l < t.leaves; ++l) {
    const fp::IterationRecord rec = small_record(l, 0);
    for (std::uint32_t u = 0; u < t.uplinks_per_leaf(); ++u) {
      for (std::uint32_t src = 0; src < t.leaves; ++src) {
        map.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{src}, rec.by_src[u][src]);
      }
    }
  }
  return map;
}

/// Strip the u32 length prefix off a complete frame.
std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.data() + 4, frame.size() - 4};
}

/// Body (everything after the opcode byte) of a complete frame.
std::span<const std::uint8_t> body_of(const std::vector<std::uint8_t>& frame) {
  return {frame.data() + 5, frame.size() - 5};
}

Op reply_op(const EngineReply& r) { return static_cast<Op>(r.bytes[4]); }

Err reply_err(const EngineReply& r) {
  EXPECT_EQ(reply_op(r), Op::kErr);
  const auto e = decode_err({r.bytes.data() + 5, r.bytes.size() - 5});
  EXPECT_TRUE(e.has_value());
  return e.has_value() ? e->code : Err::kBadFrame;
}

// ---------------------------------------------------------------------------
// Codec round trips.
// ---------------------------------------------------------------------------

TEST(DaemonCodec, HelloRoundTripsExactly) {
  Hello h;
  h.topo = net::TopologyInfo{32, 16, 2, 4};
  h.job = 3;
  h.first_leaf = net::LeafId{12};
  h.leaf_count = 5;
  const auto frame = encode_hello(h);
  const auto back = decode_hello(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(DaemonCodec, CountersRoundTripBitExact) {
  const fp::IterationRecord rec = small_record(2, 9);
  const auto frame = encode_counters(rec);
  const auto back = decode_counters(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->leaf, rec.leaf);
  EXPECT_EQ(back->iteration, rec.iteration);
  EXPECT_EQ(back->packets, rec.packets);
  ASSERT_EQ(back->bytes.size(), rec.bytes.size());
  for (std::size_t u = 0; u < rec.bytes.size(); ++u) {
    EXPECT_EQ(back->bytes[u], rec.bytes[u]);  // exact, not near
    ASSERT_EQ(back->by_src[u].size(), rec.by_src[u].size());
    for (std::size_t s = 0; s < rec.by_src[u].size(); ++s) {
      EXPECT_EQ(back->by_src[u][s], rec.by_src[u][s]);
    }
  }
  // Re-encoding the decoded record reproduces the frame byte-for-byte.
  EXPECT_EQ(encode_counters(*back), frame);
}

TEST(DaemonCodec, PredictRoundTripBitExact) {
  fp::PortLoadMap map{4, 2};
  for (std::uint32_t l = 0; l < 4; ++l) {
    for (std::uint32_t u = 0; u < 2; ++u) {
      for (std::uint32_t s = 0; s < 4; ++s) {
        if (s == l) continue;
        map.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{s}, 1.0 / 7.0 + l + u);
      }
    }
  }
  const auto frame = encode_predict(map);
  const auto back = decode_predict(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(encode_predict(*back), frame);
}

TEST(DaemonCodec, ErrAndStatsRoundTrip) {
  const auto err_frame = encode_err(Err::kNotOwned, "leaf 7 belongs to another shard");
  const auto err_back = decode_err(body_of(err_frame));
  ASSERT_TRUE(err_back.has_value());
  EXPECT_EQ(err_back->code, Err::kNotOwned);
  EXPECT_EQ(err_back->message, "leaf 7 belongs to another shard");

  StatsSnapshot s;
  s.frames_in = 101;
  s.counters_ingested = 90;
  s.counters_rejected = 4;
  s.predict_installs = 2;
  s.verdict_queries = 3;
  s.alerts = 12;
  s.errors = 5;
  s.connections_accepted = 9;
  s.connections_open = 2;
  s.bytes_in = core::Bytes{123456};
  s.bytes_out = core::Bytes{7890};
  s.shard_index = 1;
  s.shard_count = 4;
  s.owned_first = net::LeafId{8};
  s.owned_leaves = 8;
  const auto frame = encode_stats_reply(s);
  const auto back = decode_stats_reply(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(DaemonCodec, VerdictReplyRoundTripsExactly) {
  FabricVerdict v;
  v.flagged = true;
  v.first_faulty_iteration = net::IterIndex{3};
  v.suspect_links = {net::LinkId::of(net::LeafId{1}, net::UplinkIndex{0}),
                     net::LinkId::of(net::LeafId{12}, net::UplinkIndex{5})};
  VerdictAlert a;
  a.iteration = net::IterIndex{3};
  a.leaf = net::LeafId{12};
  a.uplink = net::UplinkIndex{5};
  a.observed = 0.3 - 0.1;  // not exactly representable: bit-exactness matters
  a.predicted = 1.0 / 3.0;
  a.rel_dev = -0.0401;
  a.verdict = fp::Localization::Verdict::kRemoteLinks;
  a.suspect_senders = {net::LeafId{1}, net::LeafId{3}};
  v.alerts = {a};
  const auto frame = encode_verdict_reply(v);
  const auto back = decode_verdict_reply(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
}

// ---------------------------------------------------------------------------
// Codec hardening: hostile bytes must produce errors, never crashes.
// ---------------------------------------------------------------------------

TEST(DaemonCodecHardening, TruncatedBodiesAtEveryLengthAreRejected) {
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_hello(small_hello()),
      encode_counters(small_record(1, 0)),
      encode_predict(fp::PortLoadMap{4, 2}),
      encode_err(Err::kBadFrame, "x"),
      encode_stats_reply(StatsSnapshot{}),
      encode_verdict_reply(FabricVerdict{}),
  };
  for (const auto& frame : frames) {
    const auto body = body_of(frame);
    const Op op = static_cast<Op>(frame[4]);
    for (std::size_t len = 0; len < body.size(); ++len) {
      const std::span<const std::uint8_t> cut{body.data(), len};
      switch (op) {
        case Op::kHello:
          EXPECT_FALSE(decode_hello(cut).has_value()) << "len " << len;
          break;
        case Op::kCounters:
          EXPECT_FALSE(decode_counters(cut).has_value()) << "len " << len;
          break;
        case Op::kPredict:
          EXPECT_FALSE(decode_predict(cut).has_value()) << "len " << len;
          break;
        case Op::kErr:
          EXPECT_FALSE(decode_err(cut).has_value()) << "len " << len;
          break;
        case Op::kStatsReply:
          EXPECT_FALSE(decode_stats_reply(cut).has_value()) << "len " << len;
          break;
        default:
          EXPECT_FALSE(decode_verdict_reply(cut).has_value()) << "len " << len;
          break;
      }
    }
  }
}

TEST(DaemonCodecHardening, TrailingGarbageIsRejected) {
  auto frame = encode_hello(small_hello());
  frame.push_back(0xAA);
  EXPECT_FALSE(decode_hello(body_of(frame)).has_value());
}

TEST(DaemonCodecHardening, CountersWithAbsurdDimensionsRejected) {
  // A hand-built COUNTERS body claiming 2^30 ports but carrying 8 bytes:
  // the decoder must reject from the length mismatch, not allocate.
  Writer w;
  w.u32(1);           // leaf
  w.u32(0);           // iteration
  w.u64(1);           // packets
  w.u32(1u << 30);    // ports (hostile)
  w.u32(4);           // senders per port
  w.f64(1.0);         // nowhere near enough doubles
  EXPECT_FALSE(decode_counters(w.buf()).has_value());
}

TEST(DaemonCodecHardening, CountersWithWrappingSenderCountRejected) {
  // senders = 2^32-1 makes (1 + senders) wrap to 0 in uint32 arithmetic, so
  // a naive size check sees 0 doubles and passes on a header-only body — the
  // decoder would then try to allocate ports × 4-GiB-wide rows.
  Writer w;
  w.u32(1);            // leaf
  w.u32(0);            // iteration
  w.u64(1);            // packets
  w.u32(3);            // ports
  w.u32(0xFFFFFFFFu);  // senders (hostile)
  EXPECT_FALSE(decode_counters(w.buf()).has_value());
}

TEST(DaemonCodecHardening, PredictWithWrappingDimensionsRejected) {
  // leaves = uplinks = 2^31: leaves·uplinks·(1+leaves)·8 ≡ 0 mod 2^64, so a
  // pure size check wraps clean on an empty body and the decoder would
  // attempt an enormous PortLoadMap. Dimensions must be bounded first.
  Writer w;
  w.u32(1u << 31);  // leaves
  w.u32(1u << 31);  // uplinks
  EXPECT_FALSE(decode_predict(w.buf()).has_value());
}

TEST(DaemonCodecHardening, ErrWithOverlongMessageTruncatesConsistently) {
  // The declared u16 length and the emitted bytes must agree even when the
  // message exceeds 65535 chars — decode_err rejects any mismatch.
  const std::string longmsg(100000, 'e');
  const auto frame = encode_err(Err::kBadFrame, longmsg);
  const auto back = decode_err(body_of(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, Err::kBadFrame);
  EXPECT_EQ(back->message.size(), 0xffffu);
  EXPECT_EQ(back->message, longmsg.substr(0, 0xffff));
}

TEST(DaemonCodecHardening, AssemblerHandlesByteDribbleAndBatches) {
  const auto f1 = encode_simple(Op::kVerdict);
  const auto f2 = encode_hello(small_hello());
  std::vector<std::uint8_t> wire;
  wire.insert(wire.end(), f1.begin(), f1.end());
  wire.insert(wire.end(), f2.begin(), f2.end());

  FrameAssembler a;
  std::vector<std::uint8_t> frame;
  std::size_t frames_seen = 0;
  for (const std::uint8_t byte : wire) {
    a.feed({&byte, 1});
    while (a.next(frame) == FrameAssembler::Status::kFrame) ++frames_seen;
  }
  EXPECT_EQ(frames_seen, 2u);
  EXPECT_EQ(a.buffered(), 0u);

  // Both frames in one feed() drain as two.
  FrameAssembler b;
  b.feed(wire);
  EXPECT_EQ(b.next(frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(b.next(frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(b.next(frame), FrameAssembler::Status::kNeedMore);
}

TEST(DaemonCodecHardening, OversizedAndEmptyFramesAreFatal) {
  FrameAssembler a;
  Writer w;
  w.u32(kMaxFramePayload + 1);
  a.feed(w.buf());
  std::vector<std::uint8_t> frame;
  EXPECT_EQ(a.next(frame), FrameAssembler::Status::kOversized);

  FrameAssembler b;
  Writer z;
  z.u32(0);
  b.feed(z.buf());
  EXPECT_EQ(b.next(frame), FrameAssembler::Status::kEmpty);
}

// ---------------------------------------------------------------------------
// Engine protocol semantics (no sockets).
// ---------------------------------------------------------------------------

EngineConfig small_engine_config(std::uint32_t shard_index = 0,
                                 std::uint32_t shard_count = 1) {
  EngineConfig cfg;
  cfg.topo = small_topo();
  cfg.system.detector = fp::DetectorKind::kStreaming;
  cfg.shard_index = shard_index;
  cfg.shard_count = shard_count;
  return cfg;
}

TEST(DaemonEngineTest, CountersBeforeHelloRejected) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  const auto reply = engine.on_frame(s, payload_of(encode_counters(small_record(0, 0))));
  EXPECT_EQ(reply_err(reply), Err::kNoHello);
  EXPECT_EQ(engine.stats().counters_rejected, 1u);
}

TEST(DaemonEngineTest, HelloValidation) {
  DaemonEngine engine{small_engine_config()};
  Session s;

  Hello bad_version = small_hello();
  bad_version.version = 99;
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_hello(bad_version)))),
            Err::kBadVersion);

  Hello bad_topo = small_hello();
  bad_topo.topo.spines = 7;
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_hello(bad_topo)))),
            Err::kTopologyMismatch);

  Hello bad_job = small_hello();
  bad_job.job = 9;
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_hello(bad_job)))),
            Err::kTopologyMismatch);

  Hello bad_range = small_hello();
  bad_range.first_leaf = net::LeafId{3};
  bad_range.leaf_count = 2;  // [3,5) of a 4-leaf fabric
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_hello(bad_range)))),
            Err::kBadDimensions);

  EXPECT_FALSE(s.registered);
  EXPECT_EQ(reply_op(engine.on_frame(s, payload_of(encode_hello(small_hello())))), Op::kOk);
  EXPECT_TRUE(s.registered);
}

TEST(DaemonEngineTest, CountersOutsideSessionRangeRejected) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  Hello h = small_hello();
  h.first_leaf = net::LeafId{1};
  h.leaf_count = 2;  // registers [1,3)
  ASSERT_EQ(reply_op(engine.on_frame(s, payload_of(encode_hello(h)))), Op::kOk);
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_counters(small_record(3, 0))))),
            Err::kUnregisteredLeaf);
  EXPECT_EQ(reply_op(engine.on_frame(s, payload_of(encode_counters(small_record(2, 0))))),
            Op::kOk);
}

TEST(DaemonEngineTest, CountersForAnotherShardRejected) {
  DaemonEngine engine{small_engine_config(0, 2)};  // owns leaves [0,2)
  EXPECT_TRUE(engine.owns(net::LeafId{1}));
  EXPECT_FALSE(engine.owns(net::LeafId{2}));
  Session s;
  ASSERT_EQ(reply_op(engine.on_frame(s, payload_of(encode_hello(small_hello())))), Op::kOk);
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_counters(small_record(2, 0))))),
            Err::kNotOwned);
}

TEST(DaemonEngineTest, WrongDimensionsRejected) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  ASSERT_EQ(reply_op(engine.on_frame(s, payload_of(encode_hello(small_hello())))), Op::kOk);
  fp::IterationRecord rec = small_record(0, 0);
  rec.bytes.push_back(0.0);  // five ports on a two-uplink fabric
  rec.by_src.emplace_back(4, 0.0);
  EXPECT_EQ(reply_err(engine.on_frame(s, payload_of(encode_counters(rec)))),
            Err::kBadDimensions);
}

TEST(DaemonEngineTest, UnknownAndReplyOpcodesRejected) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  const std::uint8_t unknown[] = {0x7f};
  EXPECT_EQ(reply_err(engine.on_frame(s, unknown)), Err::kBadOpcode);
  const std::uint8_t ok_as_request[] = {0x80};
  EXPECT_EQ(reply_err(engine.on_frame(s, ok_as_request)), Err::kBadOpcode);
}

TEST(DaemonEngineTest, QuitClosesShutdownStops) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  const auto quit = engine.on_frame(s, payload_of(encode_simple(Op::kQuit)));
  EXPECT_EQ(reply_op(quit), Op::kOk);
  EXPECT_TRUE(quit.close);
  EXPECT_FALSE(quit.shutdown);
  const auto shutdown = engine.on_frame(s, payload_of(encode_simple(Op::kShutdown)));
  EXPECT_TRUE(shutdown.shutdown);
  const auto bad = engine.on_bad_stream(Err::kOversized);
  EXPECT_TRUE(bad.close);
  EXPECT_EQ(reply_err(bad), Err::kOversized);
}

TEST(DaemonEngineTest, FuzzedFramesNeverCrashAndAlwaysReply) {
  DaemonEngine engine{small_engine_config()};
  Session s;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // deterministic xorshift
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> frame(1 + next() % 96);
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(next());
    const auto reply = engine.on_frame(s, frame);
    ASSERT_GE(reply.bytes.size(), 5u);  // length prefix + opcode, always
  }
}

// ---------------------------------------------------------------------------
// Verdict determinism: simulator equivalence and shard-merge byte identity.
// ---------------------------------------------------------------------------

/// Run `cfg` and export its counter stream exactly the way
/// `flowpulse_cli --dump-counters` does: every record the detector
/// evaluated, fast-forwarded iterations included. *in_sim receives the
/// run's own verdict.
CounterStream run_and_record(const exp::ScenarioConfig& cfg, FabricVerdict* in_sim) {
  exp::Scenario scenario{cfg};
  CounterStream stream;
  scenario.flowpulse().set_record_hook(
      [&stream](const fp::IterationRecord& r) { stream.records.push_back(r); });
  scenario.run();
  *in_sim = compute_verdict(scenario.flowpulse().results());
  stream.hello.topo = cfg.fabric.shape;
  stream.hello.job = cfg.flowpulse.job;
  stream.hello.first_leaf = net::LeafId{0};
  stream.hello.leaf_count = cfg.fabric.shape.leaves;
  if (scenario.prediction() != nullptr) stream.prediction = *scenario.prediction();
  sort_records(stream.records);
  return stream;
}

exp::ScenarioConfig fault_scenario_config() {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective_bytes = core::Bytes{8'000'000};
  cfg.iterations = 4;
  cfg.flowpulse.detector = fp::DetectorKind::kStreaming;
  exp::NewFault f;
  f.leaf = net::LeafId{5};
  f.uplink = net::UplinkIndex{2};
  f.where = exp::NewFault::Where::kBoth;
  f.spec = net::FaultSpec::random_drop(0.05);
  cfg.new_faults.push_back(f);
  return cfg;
}

/// Route `stream` through `shard_count` engines over the wire codec and
/// merge the per-shard verdicts — the in-process image of a cluster run.
FabricVerdict run_sharded(const CounterStream& stream, std::uint32_t shard_count,
                          const exp::ScenarioConfig& cfg) {
  std::vector<FabricVerdict> verdicts;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    EngineConfig ec;
    ec.topo = stream.hello.topo;
    ec.system = cfg.flowpulse;
    ec.shard_index = i;
    ec.shard_count = shard_count;
    DaemonEngine engine{ec};
    Session s;
    EXPECT_EQ(reply_op(engine.on_frame(s, payload_of(encode_hello(stream.hello)))), Op::kOk);
    if (stream.prediction.has_value()) {
      EXPECT_EQ(reply_op(engine.on_frame(s, payload_of(encode_predict(*stream.prediction)))),
                Op::kOk);
    }
    for (const fp::IterationRecord& rec : stream.records) {
      if (!engine.owns(rec.leaf)) continue;
      EXPECT_EQ(reply_op(engine.on_frame(s, payload_of(encode_counters(rec)))), Op::kOk);
    }
    // Query over the wire, as the merge client would.
    const auto reply = engine.on_frame(s, payload_of(encode_simple(Op::kVerdict)));
    EXPECT_EQ(reply_op(reply), Op::kVerdictReply);
    const auto v = decode_verdict_reply({reply.bytes.data() + 5, reply.bytes.size() - 5});
    EXPECT_TRUE(v.has_value());
    verdicts.push_back(v.value_or(FabricVerdict{}));
  }
  return merge_verdicts(verdicts);
}

TEST(DaemonVerdictTest, ReplayedStreamReproducesSimulatorVerdict) {
  const exp::ScenarioConfig cfg = fault_scenario_config();
  FabricVerdict in_sim;
  const CounterStream stream = run_and_record(cfg, &in_sim);
  ASSERT_TRUE(in_sim.flagged);

  const FabricVerdict replayed = run_sharded(stream, 1, cfg);
  EXPECT_EQ(replayed, in_sim);  // doubles and all — bit-exact replay
}

TEST(DaemonVerdictTest, FlowFidelityDumpHoldsEveryIterationAndReplays) {
  // Flow fidelity fast-forwards every iteration through ingest(): none of
  // them reach a monitor's history, yet all of them must be dumped.
  exp::ScenarioConfig cfg = fault_scenario_config();
  cfg.fidelity.mode = fp::FidelityMode::kFlow;
  cfg.iterations = 12;
  FabricVerdict in_sim;
  const CounterStream recorded = run_and_record(cfg, &in_sim);
  ASSERT_TRUE(in_sim.flagged);
  EXPECT_EQ(recorded.records.size(), std::size_t{cfg.fabric.shape.leaves} * cfg.iterations);

  const std::string path = testing::TempDir() + "fp_flow_fidelity.fpstream";
  std::string err;
  ASSERT_TRUE(write_stream_file(path, recorded, &err)) << err;
  const auto stream = read_stream_file(path, &err);
  ASSERT_TRUE(stream.has_value()) << err;
  ASSERT_EQ(stream->records.size(), recorded.records.size());
  EXPECT_EQ(run_sharded(*stream, 1, cfg), in_sim);
}

TEST(DaemonVerdictTest, ShardMergeIsByteIdenticalAcross1_2_4Shards) {
  const exp::ScenarioConfig cfg = fault_scenario_config();
  FabricVerdict in_sim;
  const CounterStream stream = run_and_record(cfg, &in_sim);

  const FabricVerdict one = run_sharded(stream, 1, cfg);
  const FabricVerdict two = run_sharded(stream, 2, cfg);
  const FabricVerdict four = run_sharded(stream, 4, cfg);
  ASSERT_TRUE(one.flagged);
  EXPECT_EQ(two, one);
  EXPECT_EQ(four, one);
  // Stronger than ==: the encoded wire replies are byte-identical.
  EXPECT_EQ(encode_verdict_reply(two), encode_verdict_reply(one));
  EXPECT_EQ(encode_verdict_reply(four), encode_verdict_reply(one));
}

TEST(DaemonVerdictTest, MergePicksEarliestFaultAcrossShards) {
  FabricVerdict a;
  a.flagged = true;
  a.first_faulty_iteration = net::IterIndex{7};
  a.suspect_links = {net::LinkId::of(net::LeafId{3}, net::UplinkIndex{1})};
  FabricVerdict b;
  b.flagged = true;
  b.first_faulty_iteration = net::IterIndex{2};
  b.suspect_links = {net::LinkId::of(net::LeafId{1}, net::UplinkIndex{0})};
  const FabricVerdict merged = merge_verdicts({a, b, FabricVerdict{}});
  EXPECT_TRUE(merged.flagged);
  EXPECT_EQ(merged.first_faulty_iteration, net::IterIndex{2});
  ASSERT_EQ(merged.suspect_links.size(), 2u);
  EXPECT_LT(merged.suspect_links[0].v(), merged.suspect_links[1].v());  // canonical order
}

TEST(DaemonStreamFile, RoundTripsThroughDisk) {
  CounterStream stream;
  stream.hello = small_hello();
  fp::PortLoadMap map{4, 2};
  map.add(net::LeafId{0}, net::UplinkIndex{1}, net::LeafId{2}, 1.0 / 3.0);
  stream.prediction = map;
  stream.records = {small_record(0, 0), small_record(1, 0), small_record(0, 1)};
  sort_records(stream.records);

  const std::string path = testing::TempDir() + "fp_stream_roundtrip.fpstream";
  std::string err;
  ASSERT_TRUE(write_stream_file(path, stream, &err)) << err;
  const auto back = read_stream_file(path, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->hello, stream.hello);
  ASSERT_TRUE(back->prediction.has_value());
  EXPECT_EQ(encode_predict(*back->prediction), encode_predict(*stream.prediction));
  ASSERT_EQ(back->records.size(), stream.records.size());
  for (std::size_t i = 0; i < stream.records.size(); ++i) {
    EXPECT_EQ(encode_counters(back->records[i]), encode_counters(stream.records[i]));
  }
}

// ---------------------------------------------------------------------------
// Socket smoke: one real epoll server round trip (ephemeral port).
// ---------------------------------------------------------------------------

TEST(DaemonSocketSmoke, FullProtocolOverRealSockets) {
  EngineConfig ec = small_engine_config();
  DaemonEngine engine{ec};
  ServerConfig sc;
  sc.port = 0;  // ephemeral
  Server server{sc, engine};
  ASSERT_TRUE(server.open());
  std::thread loop{[&server] { EXPECT_EQ(server.run(), 0); }};

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect_to("127.0.0.1", server.port(), &err)) << err;
  EXPECT_TRUE(client.hello(small_hello(), &err)) << err;
  EXPECT_TRUE(client.predict(matching_prediction(), &err)) << err;
  EXPECT_TRUE(client.counters(small_record(1, 0), &err)) << err;
  const auto verdict = client.verdict(&err);
  ASSERT_TRUE(verdict.has_value()) << err;
  EXPECT_FALSE(verdict->flagged);
  const auto stats = client.stats(&err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->counters_ingested, 1u);
  EXPECT_EQ(stats->predict_installs, 1u);
  EXPECT_TRUE(client.shutdown_server(&err)) << err;
  loop.join();
}

TEST(DaemonSocketSmoke, HostileStreamGetsErrAndClose) {
  EngineConfig ec = small_engine_config();
  DaemonEngine engine{ec};
  ServerConfig sc;
  sc.port = 0;
  Server server{sc, engine};
  ASSERT_TRUE(server.open());
  std::thread loop{[&server] { EXPECT_EQ(server.run(), 0); }};

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect_to("127.0.0.1", server.port(), &err)) << err;
  Writer w;
  w.u32(kMaxFramePayload + 7);  // hostile length prefix
  ASSERT_TRUE(client.send_frames(w.buf(), &err)) << err;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(client.recv_reply(payload, &err)) << err;
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<Op>(payload[0]), Op::kErr);
  const auto e = decode_err({payload.data() + 1, payload.size() - 1});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, Err::kOversized);
  // The daemon then closes the unrecoverable connection.
  EXPECT_FALSE(client.recv_reply(payload, &err));

  server.request_stop();
  loop.join();
}

TEST(DaemonSocketSmoke, NonReadingClientIsThrottledAndOthersStillServed) {
  DaemonEngine engine{small_engine_config()};
  ServerConfig sc;
  sc.port = 0;
  Server server{sc, engine};
  ASSERT_TRUE(server.open());
  std::thread loop{[&server] { EXPECT_EQ(server.run(), 0); }};

  // A raw client that pipelines STATS and never reads a reply. Answered in
  // full, 4 MiB of requests would leave ~90 MB of replies in the daemon.
  const int flood = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(flood, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(flood, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::fcntl(flood, F_SETFL, ::fcntl(flood, F_GETFL, 0) | O_NONBLOCK), 0);
  const std::vector<std::uint8_t> request = encode_simple(Op::kStats);
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < 4096; ++i) batch.insert(batch.end(), request.begin(), request.end());
  constexpr std::size_t kBudget = 4u << 20;
  std::size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < kBudget &&
         std::chrono::steady_clock::now() - last_progress < std::chrono::milliseconds(300)) {
    const std::size_t off = sent % batch.size();  // whole frames, resumed mid-batch
    const ssize_t n = ::send(flood, batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      last_progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Another client is still served while the flood is throttled. It polls
  // STATS until the daemon holds the mark's worth of flood replies and has
  // stopped answering the flood.
  Client other;
  std::string err;
  ASSERT_TRUE(other.connect_to("127.0.0.1", server.port(), &err)) << err;
  const std::uint64_t reply = encode_stats_reply(StatsSnapshot{}).size();
  std::optional<StatsSnapshot> stats;
  std::uint64_t answered = 0;  // flood frames the daemon has answered
  std::uint64_t held = 0;      // their replies it has not sent yet
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (std::uint64_t polls = 1, last = ~std::uint64_t{0};; ++polls, last = answered) {
    stats = other.stats(&err);
    ASSERT_TRUE(stats.has_value()) << err;
    answered = stats->frames_in - polls;
    // Every byte sent so far went to the flood, bar the earlier polls' replies.
    held = answered * reply - (stats->bytes_out.v() - (polls - 1) * reply);
    if ((held >= kOutHighWater && answered == last) ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(stats->connections_open, 2u);      // throttled, not evicted
  EXPECT_LT(answered * request.size(), sent);  // the daemon stopped reading
  EXPECT_GE(held, kOutHighWater);
  EXPECT_LE(held, kOutHardCap);

  ::close(flood);
  EXPECT_TRUE(other.shutdown_server(&err)) << err;
  loop.join();
}

/// A raw client that pipelines STATS requests and reads no reply: it sends
/// whole frames until `budget` bytes are out or the daemon has taken none
/// for 300 ms. Returns the non-blocking socket.
int open_stats_flood(std::uint16_t port, std::size_t budget, std::size_t* sent) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  const std::vector<std::uint8_t> request = encode_simple(Op::kStats);
  std::vector<std::uint8_t> batch;
  for (int i = 0; i < 4096; ++i) batch.insert(batch.end(), request.begin(), request.end());
  *sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (*sent < budget &&
         std::chrono::steady_clock::now() - last_progress < std::chrono::milliseconds(300)) {
    const std::size_t off = *sent % batch.size();
    const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      *sent += static_cast<std::size_t>(n);
      last_progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return fd;
}

/// Polls STATS over `other` (which must send nothing else) until the daemon
/// holds at least the high-water mark of replies for a flood that is its
/// only other client and has stopped answering it: the flood is paused.
/// Returns the last snapshot, or nullopt on a client error or after 30 s.
std::optional<StatsSnapshot> wait_until_flood_paused(Client& other) {
  const std::uint64_t reply = encode_stats_reply(StatsSnapshot{}).size();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string err;
  for (std::uint64_t polls = 1, last = ~std::uint64_t{0};; ++polls) {
    std::optional<StatsSnapshot> stats = other.stats(&err);
    if (!stats.has_value() || std::chrono::steady_clock::now() > deadline) return std::nullopt;
    const std::uint64_t answered = stats->frames_in - polls;
    const std::uint64_t held = answered * reply - (stats->bytes_out.v() - (polls - 1) * reply);
    if (held >= kOutHighWater && answered == last) return stats;
    last = answered;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

TEST(DaemonSocketSmoke, StalledNonReadingClientIsEvicted) {
  DaemonEngine engine{small_engine_config()};
  ServerConfig sc;
  sc.port = 0;
  Server server{sc, engine};
  ASSERT_TRUE(server.open());
  std::thread loop{[&server] { EXPECT_EQ(server.run(), 0); }};

  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  const int flood = open_stats_flood(server.port(), 4u << 20, &sent);
  ASSERT_GE(flood, 0);
  Client other;
  std::string err;
  ASSERT_TRUE(other.connect_to("127.0.0.1", server.port(), &err)) << err;
  std::optional<StatsSnapshot> stats = wait_until_flood_paused(other);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->connections_open, 2u);  // paused, not yet evicted

  // The flood never reads, so its replies make no progress: the daemon
  // drops it once the stall time has passed, and not before.
  const auto deadline = std::chrono::steady_clock::now() + kOutStallTimeout + std::chrono::seconds(20);
  while (stats->connections_open == 2u && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stats = other.stats(&err);
    ASSERT_TRUE(stats.has_value()) << err;
  }
  EXPECT_EQ(stats->connections_open, 1u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kOutStallTimeout);

  ::close(flood);
  EXPECT_TRUE(other.shutdown_server(&err)) << err;
  loop.join();
}

TEST(DaemonSocketSmoke, PausedClientThatResumesReadingIsKept) {
  DaemonEngine engine{small_engine_config()};
  ServerConfig sc;
  sc.port = 0;
  Server server{sc, engine};
  ASSERT_TRUE(server.open());
  std::thread loop{[&server] { EXPECT_EQ(server.run(), 0); }};

  std::size_t sent = 0;
  const int flood = open_stats_flood(server.port(), 1u << 20, &sent);
  ASSERT_GE(flood, 0);
  Client other;
  std::string err;
  ASSERT_TRUE(other.connect_to("127.0.0.1", server.port(), &err)) << err;
  ASSERT_TRUE(wait_until_flood_paused(other).has_value());

  // Stay paused for half the stall time, then read every reply owed.
  std::this_thread::sleep_for(kOutStallTimeout / 2);
  const std::size_t request = encode_simple(Op::kStats).size();
  const std::size_t reply = encode_stats_reply(StatsSnapshot{}).size();
  const std::size_t owed = sent / request * reply;
  std::vector<std::uint8_t> buf(1u << 20);
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got < owed && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(flood, buf.data(), buf.size(), 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else {
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) << "flood connection closed";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(got, owed);

  // Well past the stall time, the drained (so no longer paused) client is
  // kept.
  std::this_thread::sleep_for(kOutStallTimeout + std::chrono::seconds(1));
  const std::optional<StatsSnapshot> stats = other.stats(&err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_EQ(stats->connections_open, 2u);

  ::close(flood);
  EXPECT_TRUE(other.shutdown_server(&err)) << err;
  loop.join();
}

}  // namespace
}  // namespace flowpulse::daemon
