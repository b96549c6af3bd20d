#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/types.h"

namespace flowpulse::transport {

/// Per-message state keyed by consecutive sequence numbers: entry `seq`
/// lives at offset `seq - base()` of a power-of-two ring. The window holds
/// exactly the span [base(), end()) of messages that are still in flight,
/// so its size tracks in-flight work, not messages ever sent. Entries
/// retire from the front only; one finished in the middle waits (marked
/// finished by its owner) until everything before it has retired.
///
/// A popped slot keeps its storage (its vectors keep their capacity) and is
/// handed out again by a later extend; `T::reset()` must clear an entry
/// back to "nothing seen yet" without releasing that storage.
template <typename T>
class SeqWindow {
 public:
  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t end() const { return base_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Moves an empty window to start at `seq`.
  void rebase(std::uint64_t seq) {
    assert(empty());
    base_ = seq;
  }

  /// The entry for `seq`, or nullptr when `seq` is outside [base(), end()).
  [[nodiscard]] T* find(std::uint64_t seq) {
    if (seq < base_ || seq - base_ >= size_) return nullptr;
    return &slots_[(head_ + (seq - base_)) & (slots_.size() - 1)];
  }

  /// The entry for `seq >= base()`, first extending the window through
  /// `seq` with reset entries. Invalidates pointers into the window.
  T& extend_to(std::uint64_t seq) {
    assert(seq >= base_);
    while (end() <= seq) {
      if (size_ == slots_.size()) grow();
      T& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
      slot.reset();
      ++size_;
    }
    return *find(seq);
  }

  /// Retires entries from the front while `retired(entry)` holds.
  template <typename Pred>
  void pop_front_while(Pred retired) {
    while (size_ > 0 && retired(slots_[head_])) {
      head_ = (head_ + 1) & (slots_.size() - 1);
      ++base_;
      --size_;
    }
  }

 private:
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(4, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t base_ = 0;
};

/// Small flat map from a peer host to per-peer state, sorted by host id.
/// An endpoint talks to a handful of peers in a ring and to at most every
/// host in an all-to-all; entries appear on first contact, so nothing is
/// sized by the fabric up front. add() invalidates references to entries.
template <typename V>
class PeerTable {
 public:
  [[nodiscard]] V* find(net::HostId host) {
    auto it = lower_bound(host);
    return it != entries_.end() && it->first == host ? &it->second : nullptr;
  }

  /// The entry for `host`, created (value-initialised) on first contact.
  V& add(net::HostId host) {
    auto it = lower_bound(host);
    if (it == entries_.end() || it->first != host) it = entries_.insert(it, {host, V{}});
    return it->second;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [host, value] : entries_) fn(host, value);
  }

 private:
  auto lower_bound(net::HostId host) {
    return std::lower_bound(entries_.begin(), entries_.end(), host,
                            [](const auto& e, net::HostId h) { return e.first < h; });
  }

  std::vector<std::pair<net::HostId, V>> entries_;
};

}  // namespace flowpulse::transport
