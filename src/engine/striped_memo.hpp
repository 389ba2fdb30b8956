// strt::engine::StripedMemo -- the one concurrent memo table behind every
// engine::Workspace family.
//
// A StripedMemo<Key, Value, Hash> is kStripes (strt::Mutex,
// std::unordered_map) pairs; Hash{}(key) & (kStripes - 1) selects the
// stripe, so lookups about different keys almost never share a lock.  It
// has four operations, and each holds exactly one stripe lock:
//
//   * find(key)          the cached value, or Value{} on a miss.  A lookup
//                        never inserts.
//   * insert(key, value) first insert wins: returns the value the table
//                        holds for `key` afterwards -- `value` itself
//                        unless a racer filled the slot first.
//   * erase(key, value)  drops the entry for `key` if it still holds
//                        `value` (a memo entry found unusable after the
//                        fact, such as an aborted exploration).
//   * for_each(fn)       calls fn(key, value) for every entry, one stripe
//                        at a time; never holds two stripe locks.
//
// Callers compute outside the locks and insert afterwards: two threads
// may race to fill one slot, both compute the identical canonical
// artifact, and the first insert wins, so striping is invisible to
// results.  Value is a nullable handle (a shared_ptr), so find() reports
// a miss as Value{}.
//
// Stripe acquisition time goes into the cache.lock_wait_ns histogram
// while observability is on.  Every operation takes a defaulted
// std::source_location and forwards it to the lock, so a
// -DSTRT_LOCKDEP=ON build labels each acquisition with the memo family's
// call site rather than a line inside this header.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>
#include <unordered_map>
#include <utility>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace strt::engine {

/// Stripes per memo (power of two).  16 stripes keep the tables
/// effectively contention-free for any plausible thread count while
/// costing 16 mutexes per memo.
inline constexpr std::size_t kStripes = 16;

/// Hash for keys that already are 64-bit content fingerprints (task and
/// curve fingerprints): the key is its own hash.
struct FingerprintHash {
  std::size_t operator()(std::uint64_t fp) const {
    return static_cast<std::size_t>(fp);
  }
};

/// Scoped stripe lock: MutexLock plus acquisition timing into the
/// cache.lock_wait_ns histogram, so residual contention is measurable (a
/// contended stripe shows up as a fat tail).  When observability is
/// disabled the clock reads are skipped.  Lockdep labels lock-order edges
/// by acquisition site, and `loc` is the memo operation's caller: a
/// witness chain names the memo family's call site, and the same-site
/// nesting check sees each family as its own site.
class STRT_SCOPED_CAPABILITY StripeLock {
 public:
  explicit StripeLock(Mutex& mu, [[maybe_unused]] const std::source_location&
                                     loc = std::source_location::current())
      STRT_ACQUIRE(mu)
      : mu_(mu) {
    const bool timed = obs::enabled();
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
#if STRT_LOCKDEP
    mu_.lock(loc);
#else
    mu_.lock();
#endif
    if (timed) {
      static obs::Histogram& h = obs::histogram("cache.lock_wait_ns");
      h.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }
  ~StripeLock() STRT_RELEASE() { mu_.unlock(); }

  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  Mutex& mu_;
};

template <class Key, class Value, class Hash = std::hash<Key>>
class StripedMemo {
 public:
  /// The value cached for `key`, or Value{} when there is none.
  [[nodiscard]] Value find(
      const Key& key,
      const std::source_location& loc = std::source_location::current()) {
    Stripe& s = stripe_of(key);
    const StripeLock lock(s.m, loc);
    const auto it = s.table.find(key);
    return it == s.table.end() ? Value{} : it->second;
  }

  /// Stores `value` unless `key` is already present; returns whichever
  /// value the table holds for `key` afterwards.
  Value insert(Key key, Value value, const std::source_location& loc =
                                         std::source_location::current()) {
    Stripe& s = stripe_of(key);
    const StripeLock lock(s.m, loc);
    return s.table.try_emplace(std::move(key), std::move(value))
        .first->second;
  }

  /// Removes `key` if the table still maps it to `value`.
  void erase(const Key& key, const Value& value,
             const std::source_location& loc =
                 std::source_location::current()) {
    Stripe& s = stripe_of(key);
    const StripeLock lock(s.m, loc);
    const auto it = s.table.find(key);
    if (it != s.table.end() && it->second == value) s.table.erase(it);
  }

  /// Calls fn(const Key&, const Value&) for every entry under its
  /// stripe's lock.  `fn` must not call back into this memo.
  template <class Fn>
  void for_each(Fn&& fn, const std::source_location& loc =
                             std::source_location::current()) {
    for (Stripe& s : stripes_) {
      const StripeLock lock(s.m, loc);
      for (const auto& [key, value] : s.table) fn(key, value);
    }
  }

 private:
  struct Stripe {
    Mutex m;
    std::unordered_map<Key, Value, Hash> table STRT_GUARDED_BY(m);
  };

  [[nodiscard]] Stripe& stripe_of(const Key& key) {
    return stripes_[Hash{}(key) & (kStripes - 1)];
  }

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace strt::engine
