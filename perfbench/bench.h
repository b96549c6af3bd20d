#pragma once

// Shared plumbing of the end-to-end benchmark: options, wall-clock timing,
// order statistics, the span recorder used by traced runs, correctness
// bookkeeping and the metric report. Every workload measures the
// simulator and daemon from outside, through their public headers only.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace fpbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
[[nodiscard]] inline double since(Clock::time_point t0) { return secs(Clock::now() - t0); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
};

/// Median of a sample; 0 for an empty one.
[[nodiscard]] double median(std::vector<double> v);

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& v);

/// The p-quantile (0 < p < 1), reported only when at least ten samples lie
/// beyond it; std::nullopt otherwise.
[[nodiscard]] std::optional<double> tail_quantile(std::vector<double> v, double p);

/// Seeded choices: a stream of independent draws keyed by (seed, purpose),
/// so adding a draw for one purpose never shifts another.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t purpose);
[[nodiscard]] std::uint32_t pick(std::uint64_t seed, std::uint64_t purpose, std::uint32_t n);

// ---------------------------------------------------------------------------
// Spans. A traced run records (name, start, end, parent) around each call
// into the program, keeps them in memory, and writes them out at exit.
// Untraced runs pay one branch per call site.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t parent = 0;  ///< 0 = root; otherwise the parent's id
  std::uint32_t id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_{enabled}, active_{enabled}, origin_{Clock::now()} {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts unit `i` of a run's timed phase. A traced run alternates traced
  /// (even) and untraced (odd) units, so one process measures the
  /// recorder's overhead; at most `max_traced` units record spans.
  void begin_unit(std::uint32_t i, std::uint32_t max_traced = UINT32_MAX) {
    active_ = enabled_ && i % 2 == 0 && i / 2 < max_traced;
    unit_traced_.push_back(active_);
  }
  /// After the timed phase: record again (when enabled).
  void end_units() { active_ = enabled_; }
  [[nodiscard]] bool active() const { return active_; }
  /// Per unit, in order: did it record spans?
  [[nodiscard]] const std::vector<bool>& unit_traced() const { return unit_traced_; }

  /// Opens a span on the calling (main) thread, nested under the innermost
  /// open one. Returns its id (0 when not recording).
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  /// The innermost open span on the main thread (0 if none).
  [[nodiscard]] std::uint32_t current() const { return stack_.empty() ? 0 : stack_.back(); }

  /// Appends already-timed spans (any thread); ids are assigned here.
  void add(std::vector<SpanRecord>&& spans);

  /// Nested RAII span on the main thread.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_{t}, id_{t.open(name)} {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

  [[nodiscard]] std::size_t size() const;

  /// Writes every span as one JSON document; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  bool active_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_ against add() from worker threads
  std::vector<SpanRecord> spans_;  ///< span id == index + 1
  std::vector<std::uint32_t> stack_;  ///< main-thread open spans
  std::vector<bool> unit_traced_;
};

// ---------------------------------------------------------------------------
// Correctness: every unit of work (run, trial, request) is attempted once
// and either passes all of its checks or counts as failed. A failed check
// is printed and lowers ok_ratio; it never aborts the run.
// ---------------------------------------------------------------------------

class Checks {
 public:
  /// One attempted unit; `problems` lists the checks it failed.
  void unit(const std::vector<std::string>& problems);
  /// `n` attempted units of which `failed` failed, with a reason.
  void units(std::uint64_t n, std::uint64_t failed, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double ok_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t printed_ = 0;
};

/// Metric values by name. Workloads set what they measure; main() checks
/// the names against the published list and fills in the rest.
using Metrics = std::map<std::string, double>;

/// Process-wide resource use (getrusage), sampled at the end of a run.
struct ProcStats {
  double peak_rss_mb = 0.0;
  double cpu_s = 0.0;
  double invol_csw = 0.0;
  double minor_faults = 0.0;
};
[[nodiscard]] ProcStats proc_stats();

/// At least `n` units, and two in a traced run so it has an untraced one.
[[nodiscard]] inline std::uint32_t min_units(const Options& o, std::uint32_t n) {
  return o.trace && n < 2 ? 2 : n;
}
class HostProbe;

// Workloads: each fills `m` with its end-to-end and per-layer metrics and
// samples the host-speed probe between units of work.
void run_fattree(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe);
void run_clos(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe);
void run_campaign(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe);
void run_daemon_replay(const Options& o, Tracer& t, Checks& c, Metrics& m, HostProbe& probe);

}  // namespace fpbench
