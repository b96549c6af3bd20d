#include "collective/runner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flowpulse::collective {
namespace {
constexpr std::uint32_t kNoRank = ~std::uint32_t{0};
}  // namespace

CollectiveRunner::CollectiveRunner(sim::Simulator& simulator,
                                   transport::TransportLayer& transports,
                                   CollectiveConfig config)
    : sim_{simulator},
      transports_{transports},
      config_{std::move(config)},
      rng_{simulator.rng().split()},
      schedule_{std::move(config_.schedule)},
      ranks_{static_cast<std::uint32_t>(config_.hosts.size())} {
  assert(!config_.hosts.empty());
  assert(config_.schedule_generator || schedule_.ranks == ranks_);
  std::uint32_t max_host = 0;
  for (const net::HostId h : config_.hosts) max_host = std::max(max_host, h.v());
  rank_of_host_.assign(max_host + 1, kNoRank);
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    assert(rank_of_host_[config_.hosts[r].v()] == kNoRank);  // one rank per host
    rank_of_host_[config_.hosts[r].v()] = r;
  }
  pending_.resize(ranks_);
  // Subscribe to message completions at every participating host.
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    const net::HostId h = config_.hosts[r];
    transports_.at(h).add_recv_handler(
        [this, h](const transport::RecvInfo& info) { on_recv(h, info); });
  }
}

net::FlowId CollectiveRunner::flow_id_for(std::uint32_t iteration) const {
  if (config_.tag_flow) {
    return net::flowid::make_collective(net::IterIndex{iteration}, config_.job_id);
  }
  // Untagged (background) job: any id without the collective sentinel.
  return (static_cast<net::FlowId>(config_.job_id) + 1) << 32 | iteration;
}

double CollectiveRunner::original_value(std::uint32_t rank, std::uint32_t chunk) const {
  // Deterministic, iteration-dependent inputs so cross-iteration mixups are
  // caught by validation.
  return (iteration_ + 1.0) * (rank + 1.0) + 0.001 * chunk;
}

void CollectiveRunner::start() { begin_iteration(0); }

void CollectiveRunner::start_iteration(std::uint32_t iteration) {
  assert(!running_);
  begin_iteration(iteration);
}

void CollectiveRunner::begin_iteration(std::uint32_t iteration) {
  iteration_ = iteration;
  iteration_start_ = sim_.now();
  running_ = true;

  if (config_.schedule_generator) {
    schedule_ = config_.schedule_generator(iteration, rng_);
    assert(schedule_.ranks == ranks_);
  }

  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_.stages.size());
  const std::size_t cells = static_cast<std::size_t>(stages) * ranks_;
  recv_remaining_.assign(cells, 0);
  // Counting sort of sends by (stage, src rank): count cell c at
  // launch_begin_[c + 2], so that after the prefix sum launch_begin_[c + 1]
  // is cell c's first slot and serves as its fill cursor; once filled,
  // launch_begin_[c] is cell c's first slot and launch_begin_[c + 1] its end.
  launch_begin_.assign(cells + 2, 0);
  total_recv_remaining_ = 0;
  for (std::uint32_t k = 0; k < stages; ++k) {
    for (const Send& s : schedule_.stages[k].sends) {
      ++recv_remaining_[std::size_t{k} * ranks_ + s.dst_rank];
      ++launch_begin_[std::size_t{k} * ranks_ + s.src_rank + 2];
      ++total_recv_remaining_;
    }
  }
  for (std::size_t c = 1; c < launch_begin_.size(); ++c) launch_begin_[c] += launch_begin_[c - 1];
  send_order_.resize(total_recv_remaining_);
  for (std::uint32_t k = 0; k < stages; ++k) {
    const std::vector<Send>& sends = schedule_.stages[k].sends;
    for (std::uint32_t i = 0; i < sends.size(); ++i) {
      send_order_[launch_begin_[std::size_t{k} * ranks_ + sends[i].src_rank + 1]++] = i;
    }
  }
  stages_clear_.assign(ranks_, 0);
  next_stage_.assign(ranks_, 0);
  // A rank may have nothing to receive in leading stages; normalize.
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    while (stages_clear_[r] < stages &&
           recv_remaining_[std::size_t{stages_clear_[r]} * ranks_ + r] == 0) {
      ++stages_clear_[r];
    }
  }

  if (config_.validate_data) {
    acc_.assign(ranks_, std::vector<double>(ranks_, 0.0));
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      for (std::uint32_t c = 0; c < ranks_; ++c) acc_[r][c] = original_value(r, c);
    }
  }

  for (std::uint32_t r = 0; r < ranks_; ++r) {
    sim::Time jitter = sim::Time::zero();
    if (config_.max_jitter > sim::Time::zero()) {
      jitter = sim::Time::picoseconds(static_cast<std::int64_t>(
          rng_.next_below(static_cast<std::uint64_t>(config_.max_jitter.ps()))));
    }
    sim_.schedule_in(jitter, [this, r, iteration] {
      if (iteration_ == iteration && running_) rank_start(r);
    });
  }

  // Degenerate schedules (no sends at all) complete immediately.
  if (total_recv_remaining_ == 0) finish_iteration();
}

void CollectiveRunner::rank_start(std::uint32_t rank) {
  // Launch every stage that is already unblocked (stage 0, plus any later
  // stage whose inbound traffic is empty).
  advance(rank);
}

void CollectiveRunner::advance(std::uint32_t rank) {
  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_.stages.size());
  while (next_stage_[rank] < stages && next_stage_[rank] <= stages_clear_[rank]) {
    const std::uint32_t k = next_stage_[rank];
    ++next_stage_[rank];
    launch_stage(rank, k);
  }
}

void CollectiveRunner::launch_stage(std::uint32_t rank, std::uint32_t stage) {
  const net::HostId src_host = config_.hosts[rank];
  const std::vector<Send>& sends = schedule_.stages[stage].sends;
  const std::size_t cell = std::size_t{stage} * ranks_ + rank;
  for (std::uint32_t i = launch_begin_[cell]; i < launch_begin_[cell + 1]; ++i) {
    const Send& s = sends[send_order_[i]];
    transport::MessageSpec spec;
    spec.dst = config_.hosts[s.dst_rank];
    spec.bytes = s.bytes;
    spec.flow_id = flow_id_for(iteration_);
    spec.priority = config_.priority;
    const double value = config_.validate_data ? acc_[rank][s.chunk] : 0.0;
    const std::uint64_t msg_id = transports_.at(src_host).send_message(spec);
    // Ids in between belong to other jobs sharing this host pair; they stay
    // non-live slots, or are skipped entirely when the window is empty.
    PendingWindow& window = pending_[rank].add(spec.dst);
    if (window.empty()) window.rebase(msg_id);
    window.extend_to(msg_id) = PendingMsg{iteration_, stage, s.dst_rank, s.chunk, value, true};
  }
}

void CollectiveRunner::on_recv(net::HostId at_host, const transport::RecvInfo& info) {
  const std::uint32_t src_rank =
      info.src.v() < rank_of_host_.size() ? rank_of_host_[info.src.v()] : kNoRank;
  if (src_rank == kNoRank) return;  // another job's message
  PendingWindow* window = pending_[src_rank].find(at_host);
  PendingMsg* slot = window != nullptr ? window->find(info.msg_id) : nullptr;
  if (slot == nullptr || !slot->live) return;  // another job's message
  const PendingMsg msg = *slot;
  slot->live = false;
  window->pop_front_while([](const PendingMsg& m) { return !m.live; });
  assert(msg.iteration == iteration_);

  const std::uint32_t rank = msg.dst_rank;
  if (config_.validate_data) {
    if (schedule_.stages[msg.stage].reduce) {
      acc_[rank][msg.chunk] += msg.value;
    } else {
      acc_[rank][msg.chunk] = msg.value;
    }
  }

  assert(recv_remaining_[std::size_t{msg.stage} * ranks_ + rank] > 0);
  --recv_remaining_[std::size_t{msg.stage} * ranks_ + rank];
  --total_recv_remaining_;

  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_.stages.size());
  while (stages_clear_[rank] < stages &&
         recv_remaining_[std::size_t{stages_clear_[rank]} * ranks_ + rank] == 0) {
    ++stages_clear_[rank];
  }
  advance(rank);

  if (total_recv_remaining_ == 0) finish_iteration();
}

void CollectiveRunner::validate_iteration() {
  // Expected full reduction of chunk c: sum over ranks of original(r, c).
  for (std::uint32_t c = 0; c < ranks_; ++c) {
    double expect = 0.0;
    for (std::uint32_t r = 0; r < ranks_; ++r) expect += original_value(r, c);
    switch (schedule_.kind) {
      case CollectiveKind::kRingAllReduce:
        for (std::uint32_t r = 0; r < ranks_; ++r) {
          if (std::abs(acc_[r][c] - expect) > 1e-6) data_valid_ = false;
        }
        break;
      case CollectiveKind::kRingReduceScatter: {
        // After N-1 RS stages, rank r owns the full sum of chunk (r+1) mod N.
        const std::uint32_t owner = (c + ranks_ - 1) % ranks_;
        if (std::abs(acc_[owner][c] - expect) > 1e-6) data_valid_ = false;
        break;
      }
      default:
        break;  // all-gather / all-to-all carry no reduction to check
    }
  }
}

void CollectiveRunner::finish_iteration() {
  running_ = false;
  ++completed_iterations_;
  iteration_durations_.push_back(sim_.now() - iteration_start_);
  if (config_.validate_data) validate_iteration();
  for (const IterationHook& hook : iteration_hooks_) {
    hook(net::IterIndex{iteration_}, iteration_start_, sim_.now());
  }

  if (config_.auto_advance && completed_iterations_ < config_.iterations) {
    const std::uint32_t next = iteration_ + 1;
    sim_.schedule_in(config_.compute_gap, [this, next] { begin_iteration(next); });
  }
}

}  // namespace flowpulse::collective
