#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collective/schedule.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/seq_window.h"
#include "transport/transport_layer.h"

namespace flowpulse::collective {

/// Configuration of a repeated collective — one "training job".
struct CollectiveConfig {
  std::vector<net::HostId> hosts;  ///< rank → host placement
  CommSchedule schedule;
  /// Optional: regenerate the schedule each iteration (dynamic demand, e.g.
  /// expert-parallel AlltoAll). Overrides `schedule` when set.
  std::function<CommSchedule(std::uint32_t iteration, sim::Rng&)> schedule_generator;
  std::uint32_t iterations = 10;
  /// Simulated compute phase between iterations.
  sim::Time compute_gap = sim::Time::microseconds(5);
  /// Straggler model: each rank delays its iteration start by an
  /// independent uniform draw in [0, max_jitter).
  sim::Time max_jitter = sim::Time::zero();
  net::Priority priority = net::Priority::kCollective;
  std::uint16_t job_id = 0;
  /// Tag packets with the FlowPulse collective sentinel (§5.1). Disable for
  /// unmeasured background jobs.
  bool tag_flow = true;
  /// Run double-precision ring algebra alongside the packets and verify the
  /// reduction result each iteration.
  bool validate_data = false;
  /// Chain iterations automatically: finishing iteration k schedules k+1
  /// after `compute_gap`. The hybrid-fidelity engine disables this and
  /// drives iterations one at a time via start_iteration(), interleaving
  /// packet-simulated iterations with analytically fast-forwarded ones.
  bool auto_advance = true;
};

/// Drives iterations of a collective over the transport layer with the
/// pipelined-ring dependency structure: a rank launches its stage-k sends
/// once every message addressed to it in stages < k has arrived. This
/// reproduces synchronous data-parallel training traffic: identical demand
/// every iteration, delimited by the flow_id iteration tag. Each rank runs
/// on its own host (`hosts` holds no duplicates).
class CollectiveRunner {
 public:
  /// (iteration index, start time, completion time)
  using IterationHook = std::function<void(net::IterIndex, sim::Time, sim::Time)>;

  CollectiveRunner(sim::Simulator& simulator, transport::TransportLayer& transports,
                   CollectiveConfig config);

  /// Schedule iteration 0 to begin now. Call once, before Simulator::run().
  void start();

  /// Manual stepping (auto_advance == false): schedule iteration `iteration`
  /// to begin now. The caller owns the inter-iteration compute gap and must
  /// not start a new iteration while one is running.
  void start_iteration(std::uint32_t iteration);

  /// True while an iteration is in flight (between begin and finish).
  [[nodiscard]] bool running() const { return running_; }

  void add_iteration_hook(IterationHook hook) { iteration_hooks_.push_back(std::move(hook)); }

  [[nodiscard]] bool finished() const { return completed_iterations_ == config_.iterations; }
  [[nodiscard]] std::uint32_t completed_iterations() const { return completed_iterations_; }
  /// Schedule used by the iteration currently running (or the last one).
  [[nodiscard]] const CommSchedule& current_schedule() const { return schedule_; }
  /// The job's configuration. Its `schedule` has moved into
  /// current_schedule(), so the runner holds one copy.
  [[nodiscard]] const CollectiveConfig& config() const { return config_; }

  /// False if any validated iteration produced a wrong reduction result.
  [[nodiscard]] bool data_valid() const { return data_valid_; }
  /// Wall-clock (simulated) duration of each completed iteration.
  [[nodiscard]] const std::vector<sim::Time>& iteration_durations() const {
    return iteration_durations_;
  }

 private:
  struct PendingMsg {
    std::uint32_t iteration = 0;
    std::uint32_t stage = 0;
    std::uint32_t dst_rank = 0;
    std::uint32_t chunk = 0;
    double value = 0.0;
    bool live = false;  ///< false: delivered, or another job's message id
    void reset() { live = false; }
  };
  /// This job's undelivered messages from one rank to one destination host,
  /// by transport message id (a per-(src, dst) sequence).
  using PendingWindow = transport::SeqWindow<PendingMsg>;

  void begin_iteration(std::uint32_t iteration);
  void rank_start(std::uint32_t rank);
  void launch_stage(std::uint32_t rank, std::uint32_t stage);
  void advance(std::uint32_t rank);
  void on_recv(net::HostId at_host, const transport::RecvInfo& info);
  void finish_iteration();
  void validate_iteration();
  [[nodiscard]] net::FlowId flow_id_for(std::uint32_t iteration) const;
  [[nodiscard]] double original_value(std::uint32_t rank, std::uint32_t chunk) const;

  sim::Simulator& sim_;
  transport::TransportLayer& transports_;
  CollectiveConfig config_;
  sim::Rng rng_;

  CommSchedule schedule_;  // schedule of the current iteration
  std::uint32_t ranks_ = 0;
  std::vector<std::uint32_t> rank_of_host_;  // host id → rank, kNoRank if not in the job

  std::uint32_t iteration_ = 0;
  std::uint32_t completed_iterations_ = 0;
  sim::Time iteration_start_ = sim::Time::zero();
  bool running_ = false;

  // Per-iteration progress, flat over [stage * ranks + rank].
  std::vector<std::uint32_t> recv_remaining_;
  // Per-rank stage index (CSR): the sends of `rank` in stage `k` are
  // schedule_.stages[k].sends[send_order_[i]] for i in
  // [launch_begin_[k * ranks + rank], launch_begin_[k * ranks + rank + 1]),
  // in schedule order.
  std::vector<std::uint32_t> launch_begin_;
  std::vector<std::uint32_t> send_order_;
  std::vector<std::uint32_t> stages_clear_;  // rank → # leading stages fully received
  std::vector<std::uint32_t> next_stage_;    // rank → next stage to launch
  std::uint64_t total_recv_remaining_ = 0;
  std::vector<transport::PeerTable<PendingWindow>> pending_;  // [src rank] by dst host

  // Data validation (one double per chunk is algebraically equivalent to a
  // full gradient vector for verifying the reduction structure).
  std::vector<std::vector<double>> acc_;  // [rank][chunk]
  bool data_valid_ = true;

  std::vector<IterationHook> iteration_hooks_;
  std::vector<sim::Time> iteration_durations_;
};

}  // namespace flowpulse::collective
