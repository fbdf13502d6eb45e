// The shared scheduling substrate for both execution engines (see
// DESIGN.md, "core layer").
//
// A `RoundCalendar<T>` is a ring-buffer calendar queue: items are bucketed
// by an absolute uint64 key (an engine round for the lock-step net, a
// virtual time for the discrete-event net).  Keys within the current
// window [base, base + buckets) land directly in their ring slot — O(1)
// schedule and O(1) take — while far-future outliers wait in an ordered
// overflow map and migrate into the ring as the window advances.  Items
// sharing a key keep their scheduling order (FIFO), which is what makes
// runs bit-reproducible.
//
// This replaces two private schedulers: the `std::map<Round, vector>`
// pending queue that used to live in `LockstepNet` (O(log r) per insert,
// node allocation per round) and the `std::priority_queue` in
// `EventQueue` (O(log e) per event, comparator churn on every pop).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace anon {

template <typename T>
class RoundCalendar {
 public:
  // `min_buckets` sizes the ring window; it is rounded up to a power of
  // two.  Keys beyond the window are still accepted (overflow map).
  explicit RoundCalendar(std::size_t min_buckets = 64) {
    std::size_t cap = 1;
    while (cap < min_buckets) cap <<= 1;
    wheel_.resize(cap);
  }

  // Start of the current window: the only key items can be taken from.
  std::uint64_t base() const { return base_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void schedule(std::uint64_t key, T item) {
    ANON_CHECK_MSG(key >= base_, "cannot schedule into the past");
    ++size_;
    if (key - base_ < wheel_.size()) {
      bucket(key).push_back(std::move(item));
      ++in_wheel_;
    } else {
      overflow_.emplace(key, std::move(item));
    }
  }

  // Smallest key holding a pending item, if any.  Ring items always
  // precede overflow items (overflow keys lie beyond the window).
  std::optional<std::uint64_t> next_key() const {
    if (in_wheel_ > 0) {
      for (std::uint64_t off = 0; off < wheel_.size(); ++off)
        if (!wheel_[slot(base_ + off)].empty()) return base_ + off;
    }
    if (!overflow_.empty()) return overflow_.begin()->first;
    return std::nullopt;
  }

  // Moves the window start forward to `key`.  Every slot passed over must
  // be empty — callers advance to the next due key, never beyond one.
  void advance_to(std::uint64_t key) {
    ANON_CHECK(key >= base_);
    if (in_wheel_ > 0) {
      ANON_CHECK_MSG(key - base_ < wheel_.size(),
                     "advanced past the whole window with items pending");
      for (std::uint64_t k = base_; k < key; ++k)
        ANON_CHECK_MSG(wheel_[slot(k)].empty(), "skipped a due bucket");
    }
    base_ = key;
    // Pull overflow items that now fit the window.  An overflow item never
    // lands behind a directly-scheduled one with the same key: direct
    // scheduling at that key only becomes possible after this migration.
    while (!overflow_.empty() &&
           overflow_.begin()->first - base_ < wheel_.size()) {
      auto node = overflow_.extract(overflow_.begin());
      bucket(node.key()).push_back(std::move(node.mapped()));
      ++in_wheel_;
    }
  }

  // Removes and returns every item due exactly at base(), in scheduling
  // order.
  std::vector<T> take_due() {
    std::vector<T> out;
    take_due_into(out);
    return out;
  }

  // Like take_due(), but recycles the caller's buffer: `out` is cleared,
  // then swapped with the due bucket, and out's old buffer goes to a
  // spare pool that the next empty slot to be scheduled into adopts.  A
  // caller that feeds its previous batch back in here keeps capacity
  // circulating, so the event loop stops allocating once the buffers are
  // warm, and the calendar holds one buffer per slot with items pending
  // rather than one per slot it ever touched.
  void take_due_into(std::vector<T>& out) {
    out.clear();
    auto& due = wheel_[slot(base_)];
    if (due.empty()) return;  // out keeps its buffer
    out.swap(due);
    in_wheel_ -= out.size();
    size_ -= out.size();
    if (due.capacity() > 0) {
      spare_.emplace_back();
      spare_.back().swap(due);
    }
  }

 private:
  std::size_t slot(std::uint64_t key) const {
    return static_cast<std::size_t>(key & (wheel_.size() - 1));
  }

  // The ring slot of `key`, given a spare buffer first if it has none.
  std::vector<T>& bucket(std::uint64_t key) {
    std::vector<T>& b = wheel_[slot(key)];
    if (b.capacity() == 0 && !spare_.empty()) {
      b.swap(spare_.back());
      spare_.pop_back();
    }
    return b;
  }

  std::vector<std::vector<T>> wheel_;
  std::vector<std::vector<T>> spare_;  // drained buffers awaiting a slot
  std::multimap<std::uint64_t, T> overflow_;  // keys >= base_ + wheel size
  std::uint64_t base_ = 0;
  std::size_t size_ = 0;
  std::size_t in_wheel_ = 0;
};

}  // namespace anon
