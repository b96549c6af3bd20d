// daemon-replay: flowpulsed over loopback. An in-process daemon::Server
// thread (the daemon's default streaming detector) is fed by this
// benchmark's client over two connections, each reporting half the leaves.
//
// The counter stream is built from a recorded packet-fidelity run, because
// flowpulse_cli cannot dump a flow-mode run's counters (README defect 3) and
// a packet run of the stream's 1024 iterations would take about 15 minutes.
// Before anything is timed, one exp::Scenario runs daemon-replay's fabric
// and collective (32×16, one host per leaf, a ~16 MB Ring-ReduceScatter) at
// packet fidelity for kRecordIterations iterations, with a kDrop silent
// drop on a seed-chosen spine→leaf link. Each leaf monitor's records give
// that leaf's sequence of per-port relative deviations from the analytical
// prediction: on the faulty leaf, the fault's signature (its shortfall and
// the retransmissions re-sprayed over the other ports); on the other
// leaves, the packet-mode spray noise, iteration after iteration. Every
// stream leaf replays one seed-chosen healthy leaf's sequence cyclically,
// in step with the other leaves, so the noise keeps its per-port levels
// and its iteration-to-iteration swings; in one seed-chosen iteration the
// faulty leaf's record replaces the injected leaf's. perfbench/calibrate.cc
// measures the same noise over longer runs.
//
// One unit of work is one replay against a fresh daemon:
//   set-up    engine + listen + two connects + HELLO ×2 + PREDICT
//   open loop the first kOpenIterations iterations, sent on a fixed
//             schedule at kOfferedRate COUNTERS/s; each request is timed
//             from its scheduled send time
//   closed    the remaining iterations, pipelined kPipeline deep per
//             connection (the timed phase: run_s)
//   check     every COUNTERS answered OK and ingested; VERDICT equals the
//             in-process engine's verdict over the same frames and names
//             the injected link at the fault iteration
//   teardown  SHUTDOWN, join the server thread, close everything.

#include <pthread.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <deque>
#include <iostream>
#include <memory>
#include <thread>

#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/verdict.h"
#include "probe.h"
#include "two_level.h"

namespace fpbench {

using namespace flowpulse;

namespace {

constexpr std::uint32_t kLeaves = 32;
constexpr std::uint32_t kSpines = 16;
constexpr std::uint64_t kBytes = 16'000'000;
constexpr std::uint32_t kIterations = 1024;
constexpr std::uint32_t kOpenIterations = 256;
constexpr double kOfferedRate = 20'000.0;  ///< open-loop COUNTERS/s, both connections
constexpr std::uint32_t kPipeline = 16;    ///< closed-loop requests in flight per connection
constexpr std::uint32_t kConnections = 2;
constexpr std::uint32_t kRecordIterations = 3;
/// A port carries ~237 packets an iteration, so one iteration of a 10% drop
/// shows as a 9.7% ± 1.9% shortfall (never below 6.1% in calibrate.cc's 18
/// iterations), far above the noise. One iteration of 1.5% shows as
/// 1.45% ± 0.76%, as little as 0.22%: whether it is caught would depend on
/// the seed.
constexpr double kDrop = 0.10;

struct Stream {
  daemon::Hello hello;
  fp::PortLoadMap prediction{0, 0};
  std::vector<std::vector<std::uint8_t>> frames;  ///< iteration-major, leaf-minor
  std::vector<double> encode_us;                  ///< per daemon::encode_counters call
  net::LeafId fault_leaf{};
  net::UplinkIndex fault_uplink{};
  std::uint32_t fault_iteration = 0;
};

/// Per-port relative deviation of a recorded iteration from the prediction.
using Deviation = std::vector<double>;

Deviation deviation(const fp::IterationRecord& rec, const fp::PortLoadMap& prediction) {
  Deviation d(kSpines, 0.0);
  for (std::uint32_t u = 0; u < kSpines; ++u) {
    const fp::PortLoad& p = prediction.at(rec.leaf, net::UplinkIndex{u});
    double want = 0.0;
    for (const double b : p.by_src_leaf) want += b;
    if (want > 0.0) d[u] = rec.bytes[u] / want - 1.0;
  }
  return d;
}

Stream make_stream(std::uint64_t seed, const fp::PortLoadMap& prediction, Tracer& t) {
  Stream s;
  s.hello.topo = net::TopologyInfo{kLeaves, kSpines, 1, 1};
  s.hello.first_leaf = net::LeafId{0};
  s.hello.leaf_count = kLeaves;
  s.prediction = prediction;
  s.fault_leaf = net::LeafId{pick(seed, 1, kLeaves)};
  s.fault_uplink = net::UplinkIndex{pick(seed, 2, kSpines)};
  s.fault_iteration = 32 + pick(seed, 3, kIterations - 64);

  std::vector<std::vector<Deviation>> recorded(kLeaves);  ///< [leaf][iteration]
  {
    const Tracer::Scope span{t, "daemon.record_packet_run"};
    exp::ScenarioConfig cfg;
    cfg.fabric.shape = s.hello.topo;
    cfg.collective = collective::CollectiveKind::kRingReduceScatter;
    cfg.collective_bytes = core::Bytes{kBytes};
    cfg.iterations = kRecordIterations;
    cfg.lanes = 0;
    cfg.seed = mix(seed, 5);
    exp::NewFault f;
    f.leaf = s.fault_leaf;
    f.uplink = s.fault_uplink;
    f.where = exp::NewFault::Where::kDownlink;
    f.spec = net::FaultSpec::random_drop(kDrop);
    cfg.new_faults.push_back(f);
    exp::Scenario run{cfg};
    run.run();
    for (std::uint32_t l = 0; l < kLeaves; ++l) {
      for (const fp::IterationRecord& rec : run.flowpulse().monitor(net::LeafId{l}).history()) {
        recorded[l].push_back(deviation(rec, *run.prediction()));
      }
    }
  }
  std::vector<std::uint32_t> healthy;
  for (std::uint32_t l = 0; l < kLeaves; ++l) {
    if (l != s.fault_leaf.v() && recorded[l].size() == kRecordIterations) healthy.push_back(l);
  }
  if (healthy.empty() || recorded[s.fault_leaf.v()].size() != kRecordIterations) {
    return s;  // no frames: every check fails
  }
  std::vector<std::uint32_t> source(kLeaves);  ///< stream leaf -> recorded healthy leaf
  for (std::uint32_t l = 0; l < kLeaves; ++l) {
    source[l] = healthy[pick(mix(seed, 4), l, static_cast<std::uint32_t>(healthy.size()))];
  }

  for (std::uint32_t it = 0; it < kIterations; ++it) {
    for (std::uint32_t l = 0; l < kLeaves; ++l) {
      const bool faulty = l == s.fault_leaf.v() && it == s.fault_iteration;
      const Deviation& d = recorded[faulty ? l : source[l]][it % kRecordIterations];
      fp::IterationRecord rec;
      rec.leaf = net::LeafId{l};
      rec.iteration = net::IterIndex{it};
      rec.bytes.assign(kSpines, 0.0);
      rec.by_src.assign(kSpines, std::vector<double>(kLeaves, 0.0));
      for (std::uint32_t u = 0; u < kSpines; ++u) {
        const fp::PortLoad& p = prediction.at(net::LeafId{l}, net::UplinkIndex{u});
        for (std::uint32_t src = 0; src < kLeaves; ++src) {
          rec.by_src[u][src] = p.by_src_leaf[src] * (1.0 + d[u]);
          rec.bytes[u] += rec.by_src[u][src];
        }
        rec.packets += static_cast<std::uint64_t>(rec.bytes[u] / 4160.0);
      }
      const Clock::time_point t0 = Clock::now();
      s.frames.push_back(daemon::encode_counters(rec));
      s.encode_us.push_back(1e6 * since(t0));
    }
  }
  return s;
}

daemon::EngineConfig engine_config() {
  daemon::EngineConfig cfg;
  cfg.topo = net::TopologyInfo{kLeaves, kSpines, 1, 1};
  cfg.system.threshold = 0.01;
  cfg.system.detector = fp::DetectorKind::kStreaming;
  return cfg;
}

std::uint32_t conn_of(std::size_t frame) {
  const auto leaf = static_cast<std::uint32_t>(frame % kLeaves);
  return leaf * kConnections / kLeaves;
}

/// Payload (opcode + body) of a complete frame.
std::span<const std::uint8_t> payload(const std::vector<std::uint8_t>& frame) {
  return {frame.data() + 4, frame.size() - 4};
}

bool reply_ok(const std::vector<std::uint8_t>& reply) {
  return !reply.empty() && static_cast<daemon::Op>(reply[0]) == daemon::Op::kOk;
}

/// An in-process reply frame (length prefix included) is an OK.
bool engine_ok(const daemon::EngineReply& reply) {
  return reply.bytes.size() > 4 && static_cast<daemon::Op>(reply.bytes[4]) == daemon::Op::kOk;
}

double thread_cpu_s(std::thread& th) {
  clockid_t cid{};
  timespec ts{};
  if (pthread_getcpuclockid(th.native_handle(), &cid) != 0 || clock_gettime(cid, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The in-process reference: every frame through DaemonEngine::on_frame,
/// and every COUNTERS body through decode_counters, one call at a time.
struct Reference {
  daemon::FabricVerdict verdict;
  std::vector<double> engine_us, decode_us;
  std::uint64_t rejected = 0;
};

Reference reference(const Stream& s, Tracer& t) {
  Reference ref;
  daemon::DaemonEngine engine{engine_config()};
  daemon::Session session;
  if (!engine_ok(engine.on_frame(session, payload(daemon::encode_hello(s.hello)))) ||
      !engine_ok(engine.on_frame(session, payload(daemon::encode_predict(s.prediction))))) {
    ref.rejected = s.frames.size();
    return ref;
  }
  std::vector<SpanRecord> spans;
  const std::uint32_t parent = t.current();
  ref.engine_us.reserve(s.frames.size());
  for (const std::vector<std::uint8_t>& f : s.frames) {
    const Clock::time_point t0 = Clock::now();
    const daemon::EngineReply reply = engine.on_frame(session, payload(f));
    const Clock::time_point t1 = Clock::now();
    ref.engine_us.push_back(1e6 * secs(t1 - t0));
    if (t.active()) spans.push_back({"daemon.DaemonEngine.on_frame", t0, t1, parent, 0});
    if (!engine_ok(reply)) ++ref.rejected;
  }
  for (const std::vector<std::uint8_t>& f : s.frames) {
    const Clock::time_point t0 = Clock::now();
    const auto rec = daemon::decode_counters({f.data() + 5, f.size() - 5});
    const Clock::time_point t1 = Clock::now();
    ref.decode_us.push_back(1e6 * secs(t1 - t0));
    if (t.active()) spans.push_back({"daemon.decode_counters", t0, t1, parent, 0});
    if (!rec) ++ref.rejected;
  }
  t.add(std::move(spans));
  ref.verdict = engine.verdict();
  return ref;
}

struct Replay {
  double setup_s = 0.0, closed_s = 0.0, teardown_s = 0.0, server_cpu_s = 0.0;
  std::vector<double> rtt_us, late_us;
  std::uint64_t requests = 0, rejected = 0;
  std::optional<daemon::FabricVerdict> verdict;
  std::optional<daemon::StatsSnapshot> stats;
  std::vector<std::string> problems;
};

/// Receives `n` replies on `client` in FIFO order; reply k answers the
/// request due at starts[k], and its round trip is timed from then.
void receive(daemon::Client& client, std::size_t n, const std::vector<Clock::time_point>& starts,
             const char* span_name, std::uint32_t parent, bool trace, std::vector<double>& rtt,
             std::vector<SpanRecord>& spans, std::uint64_t& rejected) {
  std::vector<std::uint8_t> reply;
  std::string err;
  for (std::size_t k = 0; k < n; ++k) {
    if (!client.recv_reply(reply, &err)) {
      rejected += n - k;
      return;
    }
    const Clock::time_point now = Clock::now();
    if (!reply_ok(reply)) ++rejected;
    rtt.push_back(1e6 * secs(now - starts[k]));
    if (trace) spans.push_back({span_name, starts[k], now, parent, 0});
  }
}

Replay replay(const Stream& s, Tracer& t) {
  Replay out;
  std::string err;
  const Clock::time_point t_setup = Clock::now();
  auto engine = std::make_unique<daemon::DaemonEngine>(engine_config());
  daemon::ServerConfig scfg;
  scfg.port = 0;  // ephemeral loopback port
  auto server = std::make_unique<daemon::Server>(scfg, *engine);
  std::thread loop;
  std::vector<daemon::Client> clients(kConnections);
  {
    const Tracer::Scope span{t, "daemon.setup"};
    if (!server->open()) {
      out.problems.push_back("daemon could not listen on loopback");
      return out;
    }
    loop = std::thread{[&server] { (void)server->run(); }};
    for (std::uint32_t k = 0; k < kConnections; ++k) {
      daemon::Hello h = s.hello;
      h.first_leaf = net::LeafId{k * kLeaves / kConnections};
      h.leaf_count = kLeaves / kConnections;
      if (!clients[k].connect_to("127.0.0.1", server->port(), &err) ||
          !clients[k].hello(h, &err)) {
        out.problems.push_back("HELLO failed: " + err);
      }
    }
    if (out.problems.empty() && !clients[0].predict(s.prediction, &err)) {
      out.problems.push_back("PREDICT failed: " + err);
    }
  }
  out.setup_s = since(t_setup);

  const std::size_t open_frames = static_cast<std::size_t>(kOpenIterations) * kLeaves;
  if (out.problems.empty()) {
    // Open loop: one generator thread (this one) sends every frame at its
    // scheduled time; one receiver per connection times each reply from it.
    const Tracer::Scope span{t, "daemon.open_loop"};
    const std::uint32_t parent = t.current();
    std::vector<std::vector<Clock::time_point>> due(kConnections);
    std::vector<std::vector<double>> rtt(kConnections);
    std::vector<std::vector<SpanRecord>> spans(kConnections);
    std::vector<std::uint64_t> rejected(kConnections, 0);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    std::vector<Clock::time_point> schedule(open_frames);
    for (std::size_t i = 0; i < open_frames; ++i) {
      schedule[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(static_cast<double>(i) / kOfferedRate));
      due[conn_of(i)].push_back(schedule[i]);
    }
    std::vector<std::thread> receivers;
    for (std::uint32_t k = 0; k < kConnections; ++k) {
      receivers.emplace_back([&, k] {
        receive(clients[k], due[k].size(), due[k], "daemon.COUNTERS", parent, t.active(), rtt[k],
                spans[k], rejected[k]);
      });
    }
    out.late_us.reserve(open_frames);
    for (std::size_t i = 0; i < open_frames; ++i) {
      Clock::time_point now = Clock::now();
      if (schedule[i] - now > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(schedule[i] - std::chrono::microseconds(100));
      }
      while ((now = Clock::now()) < schedule[i]) {
      }
      out.late_us.push_back(1e6 * secs(now - schedule[i]));
      if (!clients[conn_of(i)].send_frame(s.frames[i], &err)) {
        out.problems.push_back("open-loop send failed: " + err);
        // Unblock the receivers, which wait for replies that will not come.
        for (daemon::Client& cl : clients) ::shutdown(cl.fd(), SHUT_RDWR);
        break;
      }
    }
    for (std::thread& r : receivers) r.join();
    for (std::uint32_t k = 0; k < kConnections; ++k) {
      out.rtt_us.insert(out.rtt_us.end(), rtt[k].begin(), rtt[k].end());
      out.rejected += rejected[k];
      t.add(std::move(spans[k]));
    }
    out.requests += open_frames;
  }

  if (out.problems.empty()) {
    // Closed loop: each connection keeps kPipeline COUNTERS in flight.
    const Tracer::Scope span{t, "daemon.closed_loop"};
    const std::uint32_t parent = t.current();
    std::vector<std::vector<SpanRecord>> spans(kConnections);
    std::vector<std::uint64_t> rejected(kConnections, 0);
    const double cpu0 = thread_cpu_s(loop);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::uint32_t k = 0; k < kConnections; ++k) {
      workers.emplace_back([&, k] {
        std::vector<std::size_t> mine;
        for (std::size_t i = open_frames; i < s.frames.size(); ++i) {
          if (conn_of(i) == k) mine.push_back(i);
        }
        std::deque<Clock::time_point> inflight;
        std::vector<std::uint8_t> reply;
        std::string e;
        std::size_t sent = 0, acked = 0;
        while (acked < mine.size()) {
          while (sent < mine.size() && inflight.size() < kPipeline) {
            inflight.push_back(Clock::now());
            if (!clients[k].send_frame(s.frames[mine[sent]], &e)) {
              rejected[k] += mine.size() - acked;
              return;
            }
            ++sent;
          }
          if (!clients[k].recv_reply(reply, &e)) {
            rejected[k] += mine.size() - acked;
            return;
          }
          const Clock::time_point now = Clock::now();
          if (!reply_ok(reply)) ++rejected[k];
          if (t.active()) spans[k].push_back({"daemon.COUNTERS", inflight.front(), now, parent, 0});
          inflight.pop_front();
          ++acked;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    out.closed_s = since(t0);
    out.server_cpu_s = thread_cpu_s(loop) - cpu0;
    for (std::uint32_t k = 0; k < kConnections; ++k) {
      out.rejected += rejected[k];
      t.add(std::move(spans[k]));
    }
    out.requests += s.frames.size() - open_frames;
  }

  if (out.problems.empty()) {
    out.verdict = clients[0].verdict(&err);
    out.stats = clients[0].stats(&err);
    if (!out.verdict || !out.stats) out.problems.push_back("VERDICT/STATS failed: " + err);
  }

  const Clock::time_point t_down = Clock::now();
  {
    const Tracer::Scope span{t, "daemon.teardown"};
    if (!clients[0].connected() || !clients[0].shutdown_server(&err)) server->request_stop();
    if (loop.joinable()) loop.join();
    for (daemon::Client& cl : clients) cl.close();
    server.reset();
    engine.reset();
  }
  out.teardown_s = since(t_down);
  return out;
}

/// Runs `unit` back to back until `seconds` have gone by (stopping early
/// when one more median-length unit would overshoot by more than half) and
/// at least `at_least` times. `unit(i)` returns the wall seconds it timed.
template <typename Fn>
std::vector<double> timed_units(double seconds, std::uint32_t at_least, Fn&& unit) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0;; ++i) {
    if (i >= at_least && since(t0) + 0.5 * median(walls) >= seconds) break;
    walls.push_back(unit(i));
  }
  return walls;
}

}  // namespace

void run_daemon_replay(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe) {
  const net::TopologyInfo shape{kLeaves, kSpines, 1, 1};
  const exp::ScenarioConfig defaults;
  const TwoLevelModel model =
      time_two_level_model(shape, core::Bytes{kBytes}, defaults.transport.mtu_payload, 15, t);
  const Stream s = make_stream(o.seed, model.prediction, t);
  std::cout << "# fault: the recorded " << kDrop * 100 << "% drop on spine " << s.fault_uplink.v()
            << " -> leaf " << s.fault_leaf.v() << " in iteration " << s.fault_iteration << "; "
            << s.frames.size() << " COUNTERS, open loop at " << kOfferedRate
            << "/s for the first " << kOpenIterations * kLeaves << "\n";

  Reference ref;
  {
    const Tracer::Scope span{t, "daemon.in_process_reference"};
    ref = reference(s, t);
  }
  std::vector<std::string> ref_problems;
  if (s.frames.empty()) ref_problems.push_back("the packet run recorded no counters");
  if (ref.rejected != 0) {
    ref_problems.push_back(std::to_string(ref.rejected) + " COUNTERS refused in process");
  }
  c.unit(ref_problems);

  const net::LinkId injected = net::LinkId::of(s.fault_leaf, s.fault_uplink);
  const auto names_fault = [&s](const daemon::VerdictAlert& a) {
    return a.iteration.v() == s.fault_iteration && a.leaf == s.fault_leaf &&
           a.uplink == s.fault_uplink;
  };
  std::vector<double> setup;
  std::vector<double> teardown, rtt, late, server_cpu, busy;
  std::optional<daemon::StatsSnapshot> stats;
  std::uint32_t replays = 0, detected = 0;
  const auto unit = [&](std::uint32_t i) {
    if (i % 3 == 0) probe.sample();
    t.begin_unit(i, /*max_traced=*/1);  // ~100k spans per traced replay
    const Tracer::Scope unit_span{t, "replay"};
    Replay r = replay(s, t);
    setup.push_back(r.setup_s);
    teardown.push_back(r.teardown_s);
    rtt.insert(rtt.end(), r.rtt_us.begin(), r.rtt_us.end());
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    server_cpu.push_back(r.server_cpu_s);
    if (r.closed_s > 0.0) busy.push_back(r.server_cpu_s / r.closed_s);
    ++replays;

    std::vector<std::string>& problems = r.problems;
    if (r.rejected != 0) {
      problems.push_back(std::to_string(r.rejected) + " of " + std::to_string(r.requests) +
                         " COUNTERS not answered OK over loopback");
    }
    if (r.verdict) {
      const daemon::FabricVerdict& v = *r.verdict;
      if (!(v == ref.verdict)) problems.push_back("loopback verdict != in-process verdict");
      const bool names_link = std::find(v.suspect_links.begin(), v.suspect_links.end(),
                                        injected) != v.suspect_links.end();
      const bool at_fault = std::any_of(v.alerts.begin(), v.alerts.end(), names_fault);
      if (v.flagged && names_link && at_fault) {
        ++detected;
      } else {
        problems.push_back("verdict does not name the injected link at the fault iteration");
      }
    }
    if (r.stats) {
      if (r.stats->counters_ingested != s.frames.size() || r.stats->counters_rejected != 0) {
        problems.push_back("daemon did not ingest every COUNTERS");
      }
      if (!stats) stats = r.stats;
    }
    c.unit(problems);
    return r.closed_s;
  };
  const std::vector<double> units_timed = timed_units(o.seconds, min_units(o, 3), unit);
  t.end_units();
  probe.sample();

  const std::size_t closed_frames = s.frames.size() - kOpenIterations * kLeaves;
  report_setup(setup, probe, m);
  const double run_s = report_units(units_timed, t, probe, m);
  m["exp.teardown_s"] = median(teardown);
  // The share of replays whose loopback VERDICT names the injected port in
  // the fault iteration.
  m["detect_ratio"] = replays == 0 ? 0.0 : static_cast<double>(detected) / replays;
  const double hit =
      std::any_of(ref.verdict.alerts.begin(), ref.verdict.alerts.end(), names_fault) ? 1.0 : 0.0;

  const double checks = static_cast<double>(s.frames.size()) * kSpines;
  const double healthy = checks - 1.0;
  const double false_rows =
      static_cast<double>(ref.verdict.alerts.size()) - static_cast<double>(hit);
  m["collective.schedule_ms"] = model.schedule_ms;
  m["flowpulse.predict_ms"] = model.predict_ms;
  m["flowpulse.checks"] = checks;
  m["flowpulse.alerts"] = static_cast<double>(ref.verdict.alerts.size());
  m["flowpulse.clean_ratio"] = (healthy - false_rows) / healthy;
  if (stats) {
    m["daemon.frames_in"] = static_cast<double>(stats->frames_in);
    m["daemon.counters_rejected"] = static_cast<double>(stats->counters_rejected);
    m["daemon.errors"] = static_cast<double>(stats->errors);
    m["daemon.bytes_in"] = static_cast<double>(stats->bytes_in.v());
    m["daemon.bytes_out"] = static_cast<double>(stats->bytes_out.v());
  }
  m["daemon.engine_us_p50"] = median(ref.engine_us);
  m["daemon.encode_us_p50"] = median(s.encode_us);
  m["daemon.decode_us_p50"] = median(ref.decode_us);
  m["daemon.server_cpu_s"] = median(server_cpu);
  m["daemon.server_busy_ratio"] = median(busy);
  if (const auto p99 = tail_quantile(late, 0.99)) m["daemon.gen_late_us_p99"] = *p99;
  m["daemon.ingest_per_s"] = static_cast<double>(closed_frames) / run_s;
  if (const auto p50 = tail_quantile(rtt, 0.5)) m["daemon.rtt_us_p50"] = *p50;
  if (const auto p99 = tail_quantile(rtt, 0.99)) m["daemon.rtt_us_p99"] = *p99;
}

}  // namespace fpbench
