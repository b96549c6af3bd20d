#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace fpbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::optional<double> tail_quantile(std::vector<double> v, double p) {
  const double n = static_cast<double>(v.size());
  if (v.empty() || n * (1.0 - p) < 10.0) return std::nullopt;
  const auto k = static_cast<std::size_t>(std::floor(p * n));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

namespace {

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose) {
  return splitmix64(splitmix64(seed) ^ splitmix64(~purpose));
}

std::uint32_t pick(std::uint64_t seed, std::uint64_t purpose, std::uint32_t n) {
  // High bits, scaled: unbiased enough for n << 2^32 and free of the
  // low-bit correlations of a plain modulo.
  return static_cast<std::uint32_t>(((mix(seed, purpose) >> 32) * n) >> 32);
}

std::uint32_t Tracer::open(const char* name) {
  if (!active_) return 0;
  const std::lock_guard<std::mutex> lock{mu_};
  SpanRecord s;
  s.name = name;
  s.start = Clock::now();
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock{mu_};
  spans_[id - 1].end = now;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add(std::vector<SpanRecord>&& spans) {
  if (!active_) return;
  const std::lock_guard<std::mutex> lock{mu_};
  for (SpanRecord& s : spans) {
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(s);
  }
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::ofstream out{path};
  if (!out) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"unit\":\"us\",\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f}%s\n",
                  s.id, s.parent, s.name, us(s.start), us(s.end),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Checks::unit(const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) {
    if (printed_++ < 20) std::cout << "# check failed: " << p << "\n";
  }
}

void Checks::units(std::uint64_t n, std::uint64_t failed, const std::string& why) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0 && printed_++ < 20) {
    std::cout << "# check failed: " << failed << " of " << n << " " << why << "\n";
  }
}

ProcStats proc_stats() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcStats p;
  p.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  p.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  p.invol_csw = static_cast<double>(ru.ru_nivcsw);
  p.minor_faults = static_cast<double>(ru.ru_minflt);
  return p;
}

}  // namespace fpbench
