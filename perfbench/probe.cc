#include "probe.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <queue>
#include <unordered_map>

namespace fpbench {

namespace {

constexpr std::uint32_t kHeapSize = 1u << 15;
constexpr std::uint32_t kOps = 300'000;
constexpr std::uint64_t kMapKeys = 1u << 17;

/// The fixed kernel; returns its wall time in ms.
double kernel() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // An event heap: pop the earliest, push a successor.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  for (std::uint32_t i = 0; i < kHeapSize; ++i) heap.push(next() >> 24);
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    const std::uint64_t t = heap.top();
    heap.pop();
    heap.push(t + (next() & 0xffff));
    acc += t;
  }
  // Hash-map churn, as transport and runner bookkeeping does.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    const std::uint64_t k = next() & (kMapKeys - 1);
    const auto it = map.find(k);
    if (it == map.end()) {
      map.emplace(k, i);
    } else {
      acc += it->second;
      map.erase(it);
    }
  }
  // Keep the result live without a side effect the compiler can drop.
  volatile std::uint64_t sink = acc;
  (void)sink;
  return 1e3 * since(t0);
}

/// Reads exactly `n` bytes, retrying on EINTR; false on EOF or error.
bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Writes exactly `n` bytes, retrying on EINTR; false on error.
bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

[[noreturn]] void probe_failed(const char* what) {
  std::perror(what);
  std::exit(3);
}

}  // namespace

HostProbe::HostProbe() {
  int request[2], reply[2];
  if (::pipe(request) != 0 || ::pipe(reply) != 0) probe_failed("fpbench: probe pipe");
  std::cout.flush();  // the child must not inherit unwritten output
  child_ = ::fork();
  if (child_ < 0) probe_failed("fpbench: probe fork");
  if (child_ == 0) {
    ::close(request[1]);
    ::close(reply[0]);
    int cpu = -1;
    while (read_all(request[0], &cpu, sizeof cpu)) {
      // Measure the CPU the workload was just running on: the VM's CPUs
      // do not slow down together.
      if (cpu >= 0 && cpu < CPU_SETSIZE) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        (void)::sched_setaffinity(0, sizeof set, &set);
      }
      const double ms = kernel();
      if (!write_all(reply[1], &ms, sizeof ms)) break;
    }
    ::_exit(0);
  }
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

HostProbe::~HostProbe() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
}

void HostProbe::sample() {
  const int cpu = ::sched_getcpu();
  double ms = 0.0;
  if (!write_all(request_fd_, &cpu, sizeof cpu) || !read_all(reply_fd_, &ms, sizeof ms)) {
    probe_failed("fpbench: probe process");
  }
  ms_.push_back(ms);
}

double HostProbe::to_reference() const {
  return std::pow(kReferenceMs / mean_ms(), kSensitivity);
}

void report_setup(const std::vector<double>& setups, const HostProbe& probe, Metrics& m) {
  m["proc.setup_wall_s"] = median(setups);
  m["setup_s"] = median(setups) * probe.to_reference();
}

double report_units(const std::vector<double>& units, const Tracer& t, const HostProbe& probe,
                    Metrics& m) {
  std::vector<double> traced, untraced;
  for (std::size_t i = 0; i < units.size(); ++i) {
    (i < t.unit_traced().size() && t.unit_traced()[i] ? traced : untraced).push_back(units[i]);
  }
  const double wall = mean(untraced);
  m["proc.run_wall_s"] = wall;
  m["run_s"] = wall * probe.to_reference();
  if (t.enabled()) {
    m["trace.run_s"] = mean(traced) * probe.to_reference();
    m["trace.overhead_s"] = m["trace.run_s"] - m["run_s"];
    m["trace.spans"] = static_cast<double>(t.size());
  }
  return wall;
}

}  // namespace fpbench
