#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace flowpulse::sim {

void EventQueue::schedule(Time at, Time sched, std::uint32_t src, EventFn fn) {
  HeapEntry entry{at, sched, pack_provenance(src, next_seq_++), std::move(fn)};
  const Time delay = at - sched;
  std::size_t line = kDelayLines;
  for (std::size_t i = 0; i < kDelayLines; ++i) {
    if (line_delay_[i] == delay) {
      line = i;
      break;
    }
  }
  const std::uint32_t idle = ~live_ & ((1u << kDelayLines) - 1);
  if (line == kDelayLines && idle != 0) {
    // A delay claims an idle line only if it recently missed one: a one-off
    // delay (a timer with a random backoff) would hold the line until it
    // fires, while a fixed one it locks out sends its every event here.
    const bool recurring = std::find(missed_.begin(), missed_.end(), delay) != missed_.end();
    if (recurring) {
      line = static_cast<std::size_t>(std::countr_zero(idle));
    } else {
      missed_[missed_next_] = delay;
      missed_next_ = (missed_next_ + 1) % missed_.size();
    }
  }
  if (line != kDelayLines) {
    DelayLine& l = lines_[line];
    if (l.count == 0) {
      // An empty line holds (or takes) this delay; its only entry may be
      // the new earliest one.
      const bool earliest = size_ == 0 || earlier(entry, front());
      line_delay_[line] = delay;
      l.push_back(std::move(entry));
      live_ |= 1u << line;
      if (earliest) front_ = line;
      ++size_;
      return;
    }
    // The guard that keeps every line sorted: an entry sorting before the
    // line's last one (a caller whose sched went backwards) takes the heap.
    // One that does not sorts after the line's front, so front_ stands.
    if (!earlier(entry, l.back())) {
      l.push_back(std::move(entry));
      ++size_;
      return;
    }
  }
  push(std::move(entry));
}

void EventQueue::schedule_imported(Time at, Time sched, std::uint32_t src, std::uint64_t seq,
                                   EventFn fn) {
  ++next_seq_;  // accounting parity: an import is one scheduled event
  push(HeapEntry{at, sched, pack_provenance(src, seq), std::move(fn)});
}

void EventQueue::DelayLine::push_back(HeapEntry&& e) {
  if (count == cap) {
    const std::size_t bigger_cap = std::max<std::size_t>(16, 2 * cap);
    std::vector<HeapEntry> bigger;
    bigger.reserve(bigger_cap);
    for (std::size_t i = 0; i < count; ++i) {
      bigger.push_back(std::move(ring[(head + i) & (cap - 1)]));
    }
    ring = std::move(bigger);
    cap = bigger_cap;
    head = 0;
  }
  const std::size_t tail = (head + count) & (cap - 1);
  if (tail == ring.size()) {
    ring.push_back(std::move(e));
  } else {
    ring[tail] = std::move(e);
  }
  ++count;
}

void EventQueue::find_front() {
  const HeapEntry* best = heap_.empty() ? nullptr : &heap_.front();
  front_ = kHeapFront;
  for (std::uint32_t live = live_; live != 0; live &= live - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(live));
    const DelayLine& l = lines_[i];
    if (best == nullptr || earlier(l.front(), *best)) {
      best = &l.front();
      front_ = i;
    }
  }
}

void EventQueue::push(HeapEntry entry) {
  ++heap_pushes_;
  const bool earliest = size_ == 0 || earlier(entry, front());
  ++size_;
  std::size_t i = heap_.size();
  heap_.emplace_back();  // open a hole at the end; default EventFn is empty
  // Hole-based sift-up: shift later parents down into the hole (one move
  // per level instead of a three-move swap), then settle the new entry.
  // Full-key comparison: an imported cross-lane entry can carry *earlier*
  // provenance than a same-time entry already in the heap, so comparing
  // times alone is no longer exact the way it was pre-provenance.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(entry);
  if (earliest) front_ = kHeapFront;
}

EventQueue::Event EventQueue::pop() {
  assert(size_ > 0);
  Event ev;
  if (front_ == kHeapFront) {
    ev = Event{heap_.front().at, heap_.front().prov, std::move(heap_.front().fn)};
    HeapEntry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from(0, std::move(last));
  } else {
    DelayLine& l = lines_[front_];
    HeapEntry& e = l.front();
    ev = Event{e.at, e.prov, std::move(e.fn)};
    l.pop_front();
    if (l.count == 0) live_ &= ~(1u << front_);
  }
  --size_;
  find_front();
  return ev;
}

void EventQueue::sift_down_from(std::size_t i, HeapEntry e) {
  // Hole-based sift-down: pull earlier children up into the hole, then
  // settle `e` where it belongs.
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = 2 * i + 1;
    if (best >= n) break;
    const std::size_t r = best + 1;
    if (r < n && earlier(heap_[r], heap_[best])) best = r;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(e);
}

}  // namespace flowpulse::sim
