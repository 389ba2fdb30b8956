// Hot-path containers of the exploration engine (graph/explore).
//
// FlatSkyline: the per-vertex Pareto frontier as a flat sorted vector
// instead of a std::map.  The skyline invariant (elapsed strictly
// increasing => work strictly increasing) makes the entries sorted by
// *both* keys, so a dominance check is one binary search on elapsed and
// an eviction is one binary search on work plus a contiguous erase --
// no per-node allocation, no pointer chasing, and the whole frontier of
// a vertex sits in a few cache lines.
//
// BucketQueue: the exploration frontier as a monotone bucket queue
// indexed by elapsed ticks.  Every child state has strictly larger
// elapsed than its parent (edge separations are >= 1), so the pop cursor
// only moves forward and a bucket is complete by the time the cursor
// reaches it: push and pop are O(1) amortized, replacing per-state
// binary-heap churn.  Within a bucket, states are handed out in (work
// descending, insertion ascending) order -- the same order the previous
// priority-queue implementation used -- which expands heavy states first
// and maximizes the skyline evictions their children cause.
//
// Both containers are exercised directly by tests/test_skyline.cpp
// against the previous std::map / std::priority_queue implementations as
// oracles.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <iterator>
#include <map>
#include <vector>

#include "base/types.hpp"

namespace strt {

/// Pareto skyline over (elapsed, work) with an arena index payload:
/// entries sorted by elapsed, work strictly increasing.
class FlatSkyline {
 public:
  struct Entry {
    Time t;
    Work w;
    std::int32_t idx;
  };

  /// Returns false if (t, w) is dominated by an existing entry; otherwise
  /// inserts it (evicting entries it dominates) and returns true.
  bool insert(Time t, Work w, std::int32_t idx) {
    // First entry strictly later than t.
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), t,
        [](Time key, const Entry& e) { return key < e.t; });
    auto evict_from = it;
    if (it != entries_.begin()) {
      const Entry& prev = *std::prev(it);
      if (prev.w >= w) return false;  // dominated (covers equal t too)
      // An equal-elapsed entry with less work is itself dominated.
      if (prev.t == t) --evict_from;
    }
    // Entries at time >= t with work <= w form a contiguous run (work is
    // sorted); locate its end by binary search on work.
    const auto evict_to = std::upper_bound(
        evict_from, entries_.end(), w,
        [](Work key, const Entry& e) { return key < e.w; });
    if (evict_from != evict_to) {
      *evict_from = Entry{t, w, idx};
      entries_.erase(evict_from + 1, evict_to);
    } else {
      entries_.insert(evict_from, Entry{t, w, idx});
    }
    return true;
  }

  /// True if arena index `idx` is still the live entry at time t.
  [[nodiscard]] bool is_live(Time t, std::int32_t idx) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), t,
        [](const Entry& e, Time key) { return e.t < key; });
    return it != entries_.end() && it->t == t && it->idx == idx;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.t, e.w, e.idx);
  }

  /// for_each() over the entries with elapsed <= limit (a prefix).
  template <class Fn>
  void for_each_through(Time limit, Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.t > limit) break;
      fn(e.t, e.w, e.idx);
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  std::vector<Entry> entries_;
};

/// Monotone bucket queue over elapsed ticks.  Pops ascend in elapsed;
/// pushes at or below the pop cursor are illegal (asserted by
/// construction in the explorer: children are strictly later than their
/// parent), and every push lands at most `reach` ticks past the cursor.
///
/// Bound: the queue serves pops up to a bound (resume() sets it).
/// Pushes past the bound wait, in push order, in an overflow list until a
/// later resume() raises the bound over them, so the buckets only ever
/// span min(bound - cursor, reach) + 1 ticks.  They live in a ring of
/// that many slots rounded up to a power of two, indexed by elapsed
/// modulo the ring size; past kDenseLimit slots they fall back to an
/// ordered map of buckets, so a pathological span cannot allocate an
/// arbitrarily large empty array.  park() releases the ring between
/// resumes.
///
/// Tallies: tally(elapsed) counts an event at a tick without queueing an
/// item (the explorer tallies dominated children).  Once no later push
/// or tally can land on a tick -- the cursor has left it, or nothing at
/// or below the bound is queued any more -- its count is appended to a
/// cumulative log that tallied_through() answers by binary search.
class BucketQueue {
 public:
  struct Item {
    Work work;
    std::int32_t idx;
  };

  static constexpr std::int64_t kDenseLimit = std::int64_t{1} << 20;

  explicit BucketQueue(Time reach, Time bound = Time::unbounded())
      : reach_(std::max<std::int64_t>(reach.count(), 0)) {
    resume(bound);
  }

  void push(Time elapsed, Work work, std::int32_t idx) {
    if (elapsed.count() > bound_) {
      overflow_.push_back(Parked{elapsed.count(), Item{work, idx}});
    } else {
      bucket(elapsed.count()).items.push_back(Item{work, idx});
      ++resident_;
    }
    ++size_;
  }

  void tally(Time elapsed) {
    if (elapsed.count() > bound_) {
      overflow_tallies_.push_back(elapsed.count());
    } else {
      ++bucket(elapsed.count()).tallied;
      ++pending_;
    }
  }

  /// Pops the next item in (elapsed asc, work desc, insertion asc) order.
  /// Returns false when nothing at or below the bound is queued.
  bool pop(Time& elapsed, Item& out) {
    if (resident_ == 0) {
      close_resident();
      if (size_ == 0) close_overflow();  // nothing can land anywhere
      return false;
    }
    Bucket* b = &current();
    while (drained_ == b->items.size()) {
      leave();
      b = &current();
    }
    if (drained_ == 0) order(b->items);  // first access; bucket is complete
    elapsed = Time(cursor_);
    out = b->items[drained_++];
    --resident_;
    --size_;
    return true;
  }

  /// Serves pops up to `bound` from now on; legal at construction and
  /// once pop() has returned false.  Overflow items and tallies at or
  /// below `bound` move into the buckets, in push order.
  void resume(Time bound) {
    if (bound_ < std::numeric_limits<std::int64_t>::max()) {
      cursor_ = std::max(cursor_, bound_ + 1);  // all at or below is done
    }
    drained_ = 0;
    bound_ = std::max(bound.count(), bound_);
    const std::int64_t span = std::min(bound_ - cursor_, reach_) + 1;
    ring_.clear();
    sparse_.clear();
    slots_ = 0;
    if (span <= kDenseLimit) {
      slots_ = std::bit_ceil(static_cast<std::size_t>(std::max<std::int64_t>(
          span, 1)));
      ring_.resize(slots_);
    }
    std::size_t kept = 0;
    for (const Parked& p : overflow_) {
      if (p.tick > bound_) {
        overflow_[kept++] = p;
      } else {
        bucket(p.tick).items.push_back(p.item);
        ++resident_;
      }
    }
    overflow_.resize(kept);
    kept = 0;
    for (const std::int64_t tick : overflow_tallies_) {
      if (tick > bound_) {
        overflow_tallies_[kept++] = tick;
      } else {
        ++bucket(tick).tallied;
        ++pending_;
      }
    }
    overflow_tallies_.resize(kept);
  }

  /// Releases the buckets' memory once pop() has returned false (a no-op
  /// while items at or below the bound are queued).  The next resume()
  /// rebuilds them.
  void park() {
    if (resident_ != 0) return;
    std::vector<Bucket>().swap(ring_);
    sparse_.clear();
    slots_ = 0;
  }

  /// Sum of the tallies at ticks <= t, once t is closed (see above).
  [[nodiscard]] std::uint64_t tallied_through(Time t) const {
    const auto it = std::upper_bound(
        log_.begin(), log_.end(), t.count(),
        [](std::int64_t key, const TallyMark& m) { return key < m.tick; });
    return it == log_.begin() ? 0 : std::prev(it)->tallied;
  }

  /// Items queued, past the bound included.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Approximate heap footprint.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = ring_.capacity() * sizeof(Bucket) +
                    sparse_.size() * (sizeof(Bucket) + 48) +
                    overflow_.capacity() * sizeof(Parked) +
                    overflow_tallies_.capacity() * sizeof(std::int64_t) +
                    log_.capacity() * sizeof(TallyMark);
    const auto add = [&n](const Bucket& b) {
      n += b.items.capacity() * sizeof(Item);
    };
    for (const Bucket& b : ring_) add(b);
    for (const auto& [tick, b] : sparse_) add(b);
    return n;
  }

 private:
  struct Bucket {
    std::vector<Item> items;
    std::uint32_t tallied = 0;
  };
  struct TallyMark {
    std::int64_t tick;
    std::uint64_t tallied;  // cumulative through `tick`
  };
  struct Parked {
    std::int64_t tick;
    Item item;
  };

  Bucket& bucket(std::int64_t tick) {
    return slots_ == 0 ? sparse_[tick]
                       : ring_[static_cast<std::size_t>(tick) & (slots_ - 1)];
  }

  /// The bucket at the cursor (map mode: the first bucket, whose tick
  /// becomes the cursor).
  Bucket& current() {
    if (slots_ != 0) return bucket(cursor_);
    const auto it = sparse_.begin();
    cursor_ = it->first;
    return it->second;
  }

  /// Closes the drained bucket at the cursor and advances past it.
  void leave() {
    if (slots_ == 0) {
      const auto it = sparse_.begin();
      close(it->first, it->second);
      sparse_.erase(it);
    } else {
      Bucket& b = bucket(cursor_);
      close(cursor_, b);
      b.items.clear();
    }
    drained_ = 0;
    ++cursor_;
  }

  /// Nothing at or below the bound is queued, so nothing can land there
  /// any more: log the pending bucket tallies.
  void close_resident() {
    if (slots_ == 0) {
      for (auto& [tick, b] : sparse_) close(tick, b);
      sparse_.clear();
    } else {
      for (; pending_ != 0; ++cursor_) {
        Bucket& b = bucket(cursor_);
        close(cursor_, b);
        b.items.clear();
      }
    }
    drained_ = 0;
  }

  /// The queue is empty, so nothing can land anywhere: log the tallies
  /// past the bound too.
  void close_overflow() {
    std::sort(overflow_tallies_.begin(), overflow_tallies_.end());
    for (std::size_t i = 0; i < overflow_tallies_.size();) {
      std::size_t j = i;
      while (j < overflow_tallies_.size() &&
             overflow_tallies_[j] == overflow_tallies_[i]) {
        ++j;
      }
      total_tallied_ += j - i;
      log_.push_back(TallyMark{overflow_tallies_[i], total_tallied_});
      i = j;
    }
    overflow_tallies_.clear();
  }

  void close(std::int64_t tick, Bucket& b) {
    if (b.tallied == 0) return;
    total_tallied_ += b.tallied;
    pending_ -= b.tallied;
    log_.push_back(TallyMark{tick, total_tallied_});
    b.tallied = 0;
  }

  // A bucket is complete when the cursor reaches it (pushes only go
  // forward), so it is ordered lazily, exactly once.
  static void order(std::vector<Item>& bucket) {
    std::sort(bucket.begin(), bucket.end(),
              [](const Item& a, const Item& b) {
                if (a.work != b.work) return a.work > b.work;
                return a.idx < b.idx;
              });
  }

  std::int64_t reach_;
  std::int64_t bound_ = -1;
  std::size_t slots_ = 0;  // ring size (power of two); 0 = map mode
  std::vector<Bucket> ring_;
  std::map<std::int64_t, Bucket> sparse_;
  std::vector<Parked> overflow_;  // past the bound, in push order
  std::vector<std::int64_t> overflow_tallies_;
  std::int64_t cursor_ = 0;  // tick of the current bucket
  std::size_t drained_ = 0;  // items already handed out of current bucket
  std::size_t resident_ = 0;  // items in the buckets
  std::size_t size_ = 0;      // resident + overflow
  std::uint64_t pending_ = 0;  // bucket tallies not yet in log_
  std::uint64_t total_tallied_ = 0;
  std::vector<TallyMark> log_;
};

}  // namespace strt
