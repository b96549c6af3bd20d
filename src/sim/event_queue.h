#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace flowpulse::sim {

/// The per-event unit of work. An allocation-free small-buffer callable:
/// scheduling an event never touches the heap (see inline_fn.h) — the only
/// allocations on the schedule path are the amortized growth of the heap
/// vector itself, which reserve() can eliminate too.
using EventFn = InlineFn;

/// Priority queue of timed events ordered by (fire time, schedule time,
/// source lane, per-source seq).
///
/// The provenance fields exist for the sharded-event-lane engine's
/// bit-identity contract. In a serial run every event is scheduled by the
/// one lane (src constant) and seq is assigned in execution order, which is
/// non-decreasing in schedule time — so the full key orders exactly like
/// the classic (fire time, FIFO seq) key and serial behavior is unchanged.
/// In a laned run, a cross-lane message imported via schedule_imported
/// carries the *source* lane's schedule instant and post counter, which
/// slots it among same-fire-time events precisely where the serial engine's
/// global FIFO counter would have: events whose schedulers ran earlier fire
/// first. (Only the sub-picosecond interleave of two *different* lanes
/// scheduling at the same instant is approximated — by source-lane id; see
/// event_lane.h.)
///
/// # Delay lines
///
/// Storage is a binary heap plus kDelayLines FIFOs ("delay lines"), each
/// holding events that share one delay `at - sched`. Almost every packet
/// hop schedules a fixed delay: serialization depends only on the packet
/// size and the link rate, propagation is one constant per link. A lane
/// schedules at `sched = now`, and now never goes backwards, while seq
/// grows with every schedule — so events of one delay arrive already in
/// full-key order, and a FIFO holds them in exactly the order the heap
/// would pop them, at O(1) per push and pop.
///
/// Exactness does not rest on that argument, though, but on a guard:
/// schedule() appends to a line only if the new entry does not sort before
/// the line's last entry, and otherwise pushes it onto the heap. Every line
/// is therefore sorted whatever the caller passes, and pop() returns the
/// earliest of the heap top and the line fronts, compared on the full key —
/// the same sequence a single heap yields. A line takes a new delay only
/// once it is empty, and only for a delay that recently found no line, so a
/// one-off delay (a timer with a random backoff) does not hold a line a
/// fixed delay needs. Delays that find no line and every schedule_imported
/// entry go to the heap; heap_pushes() counts them.
///
/// There is deliberately no cancellation: components that need revocable
/// timers (e.g. retransmission timeouts) check their own state when the
/// event fires and ignore stale firings.
class EventQueue {
 public:
  /// Number of delay lines; a few more than the distinct fixed delays of a
  /// fabric's hot path (MTU and ACK serialization, propagation per link
  /// class).
  static constexpr std::size_t kDelayLines = 8;

  /// Schedule `fn` at absolute time `at`, recorded as scheduled now (the
  /// caller's clock `sched`) by lane `src`. FIFO among fully-equal keys.
  void schedule(Time at, Time sched, std::uint32_t src, EventFn fn);

  /// Import a cross-lane message with its source-side provenance: the
  /// source lane's clock when it posted and its post counter. Bumps the
  /// scheduled_total() accounting but not the local FIFO counter's order
  /// role — ordering against local events comes entirely from the key.
  void schedule_imported(Time at, Time sched, std::uint32_t src, std::uint64_t seq,
                         EventFn fn);

  /// Pre-size the heap storage for `n` simultaneously pending heap events
  /// (those no delay line takes) so the steady state never regrows it.
  void reserve(std::size_t n) { heap_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const { return heap_.capacity(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest event. Must not be called when empty().
  [[nodiscard]] Time next_time() const { return front().at; }

  struct Event {
    Time at;
    std::uint64_t seq = 0;  ///< packed (src lane, per-source seq) provenance
    EventFn fn;
  };
  /// Pop and return the earliest event. Must not be called when empty().
  Event pop();

  /// Total events ever scheduled (for throughput accounting).
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }
  /// Scheduled events that went onto the binary heap rather than a delay
  /// line. Deterministic: a work counter for the hot path.
  [[nodiscard]] std::uint64_t heap_pushes() const { return heap_pushes_; }

  /// Source lane in the top 16 bits, per-source FIFO counter in the low 48
  /// (2.8e14 events per source before wrap — and a wrap could only matter
  /// between two events tied at the same (fire, schedule) picosecond, which
  /// can never be 2^48 schedules apart). Packing both into one word keeps
  /// HeapEntry at one cache line.
  [[nodiscard]] static constexpr std::uint64_t pack_provenance(std::uint32_t src,
                                                               std::uint64_t seq) {
    return (static_cast<std::uint64_t>(src) << 48) | (seq & ((1ull << 48) - 1));
  }

 private:
  struct HeapEntry {
    Time at;
    Time sched;
    std::uint64_t prov;
    EventFn fn;
  };
  static_assert(sizeof(HeapEntry) <= 64, "heap entry should stay within one cache line");

  /// FIFO ring of entries that share one delay. The ring's capacity `cap`
  /// is zero or a power of two and is reserved, not constructed: `ring`
  /// grows by push_back until it fills, so a slot is first written when an
  /// entry lands in it and a grown ring never becomes resident at once.
  /// Until then head + count == ring.size(), so the tail is the next slot.
  struct DelayLine {
    std::vector<HeapEntry> ring;
    std::size_t cap = 0;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] HeapEntry& front() { return ring[head]; }
    [[nodiscard]] const HeapEntry& front() const { return ring[head]; }
    [[nodiscard]] const HeapEntry& back() const { return ring[(head + count - 1) & (cap - 1)]; }
    void push_back(HeapEntry&& e);
    void pop_front() {
      head = (head + 1) & (cap - 1);
      --count;
    }
  };
  static constexpr std::array<Time, kDelayLines> make_line_delays() {
    std::array<Time, kDelayLines> d{};
    d.fill(Time::max());
    return d;
  }
  /// front_ value meaning "the earliest entry is the heap top".
  static constexpr std::size_t kHeapFront = kDelayLines;

  [[nodiscard]] const HeapEntry& front() const {
    return front_ == kHeapFront ? heap_.front() : lines_[front_].front();
  }
  /// Re-point front_ at the earliest of the heap top and the line fronts.
  void find_front();

  // Hand-rolled binary heap so we can move the EventFn out on pop
  // (std::priority_queue::top() is const) and sift with hole moves
  // instead of swaps.
  void push(HeapEntry entry);
  void sift_down_from(std::size_t i, HeapEntry e);
  [[nodiscard]] bool earlier(const HeapEntry& a, const HeapEntry& b) const {
    if (a.at != b.at) return a.at < b.at;
    if (a.sched != b.sched) return a.sched < b.sched;  // serial schedule order
    return a.prov < b.prov;  // (src lane, per-source seq): FIFO within a source
  }

  std::vector<HeapEntry> heap_;
  std::array<DelayLine, kDelayLines> lines_;
  /// Each line's delay, packed apart from the rings for the schedule scan.
  std::array<Time, kDelayLines> line_delay_ = make_line_delays();
  std::uint32_t live_ = 0;  ///< bit i set while lines_[i] is non-empty
  /// Delays that recently found no line (see schedule), oldest overwritten.
  std::array<Time, 4> missed_{};
  std::size_t missed_next_ = 0;
  std::size_t front_ = kHeapFront;  ///< where the earliest entry is (if any)
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_pushes_ = 0;
};

}  // namespace flowpulse::sim
