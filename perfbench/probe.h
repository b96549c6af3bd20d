#pragma once

// Host-speed probe. The shared VMs this benchmark runs on change speed by up
// to 2x over minutes (the same 1k-host Clos run took 7.5 s and 16.9 s), far
// beyond any bound a regression gate can use. The probe times a fixed
// kernel shaped like the simulator's inner loop — a binary event heap and
// hash-map churn with their allocations — and the workloads sample it
// between units of work, so the run's wall times can be quoted at a
// reference host speed. Of the kernels tried (this one, dependent loads
// over 16 MB and over 128 MB, and mixes), this one tracked the workloads'
// own slowdowns most closely.
//
// The kernel runs in a helper process forked before the workload allocates
// anything, so it never shares a heap with the simulator: fragmentation or
// retained memory a change in src/ leaves behind cannot slow the probe and
// scale that change's own cost out of run_s. Each sample runs on the CPU the
// workload was last running on; the same kernel on whichever CPU the
// scheduler picked did not track the 1k-host Clos run's slowdowns at all.

#include <sys/types.h>

#include <cstdint>
#include <vector>

#include "bench.h"

namespace fpbench {

class HostProbe {
 public:
  /// Forks the kernel process; call before the workload allocates or
  /// starts threads. Exits the program if the process cannot be started.
  HostProbe();
  /// Stops the kernel process and waits for it.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// The kernel's time on the reference host, which scaled times are quoted
  /// against (about its time here in the VM's fast mode).
  static constexpr double kReferenceMs = 45.0;
  /// How a workload's time follows the kernel's: over 60 runs of the four
  /// workloads the least-squares slope of log(run time) on log(kernel
  /// time) was 0.37-0.74, 0.52 pooled.
  static constexpr double kSensitivity = 0.5;

  /// Has the kernel process run the fixed kernel once now, on the calling
  /// thread's current CPU, and records its time.
  void sample();

  [[nodiscard]] double mean_ms() const { return mean(ms_); }

  /// The factor that puts a wall time measured during this run on the
  /// reference host: (kReferenceMs / mean_ms())^kSensitivity.
  [[nodiscard]] double to_reference() const;

 private:
  pid_t child_ = -1;
  /// One int per sample, the CPU to run on; closing it stops the child.
  int request_fd_ = -1;
  int reply_fd_ = -1;    ///< the kernel's time in ms, one double per sample
  std::vector<double> ms_;
};

/// setup_s: the median set-up on the reference host; proc.setup_wall_s: the
/// median as measured.
void report_setup(const std::vector<double>& setups, const HostProbe& probe, Metrics& m);

/// run_s: the timed phase per unit on the reference host, as the mean over
/// the untraced units (every unit of an untraced run); proc.run_wall_s: the
/// same as measured, which it also returns. A median of unit times would
/// flip between the host's fast and slow modes; a mean moves smoothly with
/// the mix. In a traced run this also sets trace.run_s (traced units, on
/// the reference host), trace.overhead_s and trace.spans.
double report_units(const std::vector<double>& units, const Tracer& t, const HostProbe& probe,
                    Metrics& m);

}  // namespace fpbench
