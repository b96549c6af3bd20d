// fpbench: one workload of the end-to-end benchmark per invocation.
//
//   fpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <file>]
//
// Prints the seed, the machine (nproc, CPU model, build type), any failed
// correctness check, every metric by name and unit, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and the run's spans go to --trace-out. perfbench/README.md
// defines every metric and says which layer metric should move which
// end-to-end one.

#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <iostream>
#include <string>

#include "bench.h"
#include "probe.h"

using namespace fpbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The published metric lists; BENCHMARK.json names the same ones.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"run_s", "s"},          {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"}, {"detect_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"net.tx_packets", "count"},
    {"net.dropped_packets", "count"},
    {"net.events_per_packet", "ratio"},
    {"transport.data_packets", "count"},
    {"transport.retx_packets", "count"},
    {"transport.acks", "count"},
    {"transport.messages", "count"},
    {"transport.retx_ratio", "ratio"},
    {"transport.packets_per_message", "ratio"},
    {"collective.iterations", "count"},
    {"collective.schedule_ms", "ms"},
    {"collective.iter_ms_p50", "ms"},
    {"flowpulse.predict_ms", "ms"},
    {"flowpulse.checks", "count"},
    {"flowpulse.alerts", "count"},
    {"flowpulse.flow_iters", "count"},
    {"flowpulse.packet_iters", "count"},
    {"flowpulse.demotions", "count"},
    {"flowpulse.flow_iter_us", "us"},
    {"flowpulse.clean_ratio", "ratio"},
    {"flowpulse.detect_iters_p50", "iterations"},
    {"ctrl.quarantines", "count"},
    {"ctrl.restores", "count"},
    {"ctrl.mitigate_ms_p50", "ms"},
    {"ctrl.recover_ms_p50", "ms"},
    {"ctrl.false_quarantine_ratio", "ratio"},
    {"daemon.frames_in", "count"},
    {"daemon.counters_rejected", "count"},
    {"daemon.errors", "count"},
    {"daemon.bytes_in", "bytes"},
    {"daemon.bytes_out", "bytes"},
    {"daemon.engine_us_p50", "us"},
    {"daemon.encode_us_p50", "us"},
    {"daemon.decode_us_p50", "us"},
    {"daemon.server_cpu_s", "s"},
    {"daemon.server_busy_ratio", "ratio"},
    {"daemon.gen_late_us_p99", "us"},
    {"daemon.ingest_per_s", "1/s"},
    {"daemon.rtt_us_p50", "us"},
    {"daemon.rtt_us_p99", "us"},
    {"exp.teardown_s", "s"},
    {"proc.probe_ms", "ms"},
    {"proc.setup_wall_s", "s"},
    {"proc.run_wall_s", "s"},
    {"proc.cpu_s", "s"},
    {"proc.invol_csw", "count"},
    {"proc.minor_faults", "count"},
    {"trace.spans", "count"},
    {"trace.run_s", "s"},
    {"trace.overhead_s", "s"},
};

struct Workload {
  const char* name;
  void (*run)(const Options&, Tracer&, Checks&, Metrics&, HostProbe&);
};

constexpr Workload kWorkloads[] = {
    {"fattree-packet", run_fattree},
    {"clos1k", run_clos},
    {"flow-campaign", run_campaign},
    {"daemon-replay", run_daemon_replay},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "fpbench: %s\nusage: fpbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s{brand};
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// Full-precision JSON number (a non-finite value is a bug; print 0).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        o.trace_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace || !(o.seconds > 0.0)) {
    return usage("every flag needs a value; --seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload '" + o.workload + "'").c_str());

  std::cout << "# workload " << o.workload << " seed " << o.seed << " seconds " << o.seconds
            << " trace " << (o.trace ? 1 : 0) << "\n";
  std::cout << "# machine: nproc " << online_cpus() << ", cpu \"" << cpu_model()
            << "\", build " << FPBENCH_BUILD_TYPE << "\n";

  Tracer tracer{o.trace};
  Checks checks;
  Metrics m;
  HostProbe probe;
  workload->run(o, tracer, checks, m, probe);
  m["proc.probe_ms"] = probe.mean_ms();

  const ProcStats p = proc_stats();
  m["peak_rss_mb"] = p.peak_rss_mb;
  m["ok_ratio"] = checks.ok_ratio();
  m["proc.cpu_s"] = p.cpu_s;
  m["proc.invol_csw"] = p.invol_csw;
  m["proc.minor_faults"] = p.minor_faults;

  bool correct = checks.attempted() > 0 && checks.failed() == 0;
  for (const MetricDef& d : kEndToEnd) {
    if (m.count(d.name) == 0) {
      std::cout << "# internal error: end-to-end metric " << d.name << " not measured\n";
      correct = false;
    }
  }
  for (const auto& [name, value] : m) {
    const auto known = [&name](const MetricDef& d) { return name == d.name; };
    if (std::none_of(std::begin(kEndToEnd), std::end(kEndToEnd), known) &&
        std::none_of(std::begin(kPerLayer), std::end(kPerLayer), known)) {
      std::cout << "# internal error: metric " << name << " is not published\n";
      correct = false;
    }
    if (!std::isfinite(value)) {
      std::cout << "# internal error: metric " << name << " is not finite\n";
      correct = false;
    }
  }

  if (o.trace) {
    if (o.trace_path.empty() || !tracer.write(o.trace_path)) {
      std::cout << "# could not write the span file '" << o.trace_path << "'\n";
      correct = false;
    } else {
      std::cout << "# spans: " << tracer.size() << " written to " << o.trace_path << "\n";
    }
  }

  // Human-readable: every metric of both sets, then the JSON line.
  for (const MetricDef& d : kEndToEnd) {
    std::cout << "e2e   " << d.name << " = " << num(m[d.name]) << " " << d.unit << "\n";
  }
  for (const MetricDef& d : kPerLayer) {
    if (!o.trace && std::strncmp(d.name, "trace.", 6) == 0) continue;
    std::cout << "layer " << d.name << " = " << num(m[d.name]) << " " << d.unit << "\n";
  }

  std::string json = "{\"correct\": " + std::string{correct ? "true" : "false"} +
                     ", \"attempted\": " + std::to_string(checks.attempted()) +
                     ", \"failed\": " + std::to_string(checks.failed()) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    json += (first ? "\"" : ", \"") + std::string{d.name} + "\": {\"value\": " + num(m[d.name]) +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  };
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
