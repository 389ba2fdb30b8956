// Discrete-time staircase curves.
//
// A Staircase is a non-decreasing function  f : {0, 1, ...} -> Work,
// described exactly on a finite horizon [0, H] by its breakpoints and
// optionally extended beyond H by a periodic tail
//
//     f(t + p) = f(t) + w        for all t in (H - p, H],
//
// which is exactly the pseudo-periodic long-run shape of request-bound
// and supply-bound functions.  All analyses in this library are
// *finitary*: they evaluate curves inside a busy-window horizon computed
// from exact long-run rates, so the finite representation is lossless.
//
// Curves of this shape model:
//   * upper arrival / request-bound functions  rbf(t)  (work released in
//     any window of length t, window semantics are half-open [x, x+t)),
//   * lower supply-bound functions  sbf(t)  (service guaranteed in any
//     window of length t),
//   * demand-bound functions dbf(t).
//
// Breakpoints live in a SoA SegmentStore (curves/segment_store.hpp);
// steps() exposes them through the AoS-compatible StepView.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/rational.hpp"
#include "base/types.hpp"
#include "curves/segment_store.hpp"

namespace strt {

/// Periodic long-run extension of a staircase beyond its horizon.
struct Tail {
  Time period{1};
  Work increment{0};

  friend bool operator==(const Tail&, const Tail&) = default;
};

class Staircase {
 public:
  /// The zero curve on [0, horizon].
  explicit Staircase(Time horizon);

  /// Exact curve from sample points `(t, v)`: the result is the smallest
  /// non-decreasing staircase with f(t) >= v for every point (i.e. points
  /// are combined with running max).  Points may be unsorted.  A point at
  /// t = 0 is optional; f(0) defaults to 0.
  static Staircase from_points(std::vector<Step> points, Time horizon);

  /// Exact curve from an already-canonical segment store (strictly
  /// increasing times starting at t = 0, strictly increasing values) --
  /// the kernels' direct-construction path that skips from_points'
  /// sort-and-fold.  Canonical form is still validated by the invariant
  /// check.
  static Staircase from_segments(SegmentStore segments, Time horizon,
                                 std::optional<Tail> tail = std::nullopt);

  /// Attach / replace the periodic tail.  Requires `period >= 1`,
  /// `period <= horizon`, `increment >= 0`, and that the extension stays
  /// non-decreasing across the horizon boundary.
  [[nodiscard]] Staircase with_tail(Tail tail) const;
  [[nodiscard]] Staircase without_tail() const;

  [[nodiscard]] Time horizon() const { return horizon_; }
  [[nodiscard]] const std::optional<Tail>& tail() const { return tail_; }
  [[nodiscard]] StepView steps() const { return StepView(store_); }

  /// Direct SoA access for linear-scan kernels: parallel breakpoint
  /// time/value arrays (same index space as steps()).
  [[nodiscard]] std::span<const Time> times() const { return store_.times(); }
  [[nodiscard]] std::span<const Work> values() const {
    return store_.values();
  }

  /// f(t).  Valid for t in [0, horizon], or any t >= 0 if a tail is
  /// attached.  Throws std::invalid_argument outside the known domain.
  [[nodiscard]] Work value(Time t) const;

  /// Largest value on the representable domain prefix [0, horizon].
  [[nodiscard]] Work value_at_horizon() const {
    STRT_DCHECK(!store_.empty(), "staircase has no steps (malformed curve)");
    return store_.back_value();
  }

  /// Pseudo-inverse: the smallest t >= 0 with f(t) >= w.
  /// Returns Time::unbounded() if no such t exists *provably* (tail with
  /// zero increment, or value never reached on a tail-less curve whose
  /// horizon value is below w -- the latter throws instead, because the
  /// curve may simply be too short; extend it first).
  [[nodiscard]] Time inverse(Work w) const;

  /// Long-run growth rate of the tail (increment / period); nullopt when
  /// the curve has no tail.
  [[nodiscard]] std::optional<Rational> long_run_rate() const;

  /// Materialize the curve on the larger horizon `h` (requires a tail if
  /// h > horizon()).  The tail is preserved.
  [[nodiscard]] Staircase extended(Time h) const;

  /// Restrict to a smaller horizon (drops the tail).
  [[nodiscard]] Staircase truncated(Time h) const;

  /// f(t - d) for t >= d, 0 before (right time-shift, e.g. adding
  /// latency to a supply).  Horizon grows by d; the tail is preserved.
  [[nodiscard]] Staircase shifted_right(Time d) const;

  /// f(t) + c everywhere (including t = 0).  Tail preserved.
  [[nodiscard]] Staircase plus_constant(Work c) const;

  /// k * f(t).  Requires k >= 0.  Tail increment is scaled too.
  [[nodiscard]] Staircase scaled(std::int64_t k) const;

  /// Number of stored breakpoints (diagnostics / complexity reporting).
  [[nodiscard]] std::size_t breakpoint_count() const { return store_.size(); }

  /// Number of steps after t = 0 of extended(h) (of truncated(h) when
  /// h <= horizon()), counted without materializing it.  Requires a tail
  /// if h > horizon().
  [[nodiscard]] std::size_t steps_through(Time h) const;

  /// 64-bit content hash of the breakpoints, horizon and tail (the
  /// engine's curve fingerprint).  Computed on first use and kept: a
  /// curve never changes, so neither does its hash.  Safe to call
  /// concurrently on a shared curve.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Approximate heap bytes of the SoA segment store (cache accounting).
  [[nodiscard]] std::uint64_t store_bytes() const {
    return store_.heap_bytes();
  }

  /// True if f(0) == 0 (required of arrival and supply curves).
  [[nodiscard]] bool starts_at_zero() const {
    return store_.value(0) == Work::zero();
  }

  /// Exhaustive subadditivity check on the horizon:
  /// f(s + t) <= f(s) + f(t) for all breakpoint combinations.
  /// O(n^2) -- intended for tests and small curves.
  [[nodiscard]] bool is_subadditive() const;

  /// Content equality (the cached hash takes no part).
  friend bool operator==(const Staircase& a, const Staircase& b) {
    return a.horizon_ == b.horizon_ && a.tail_ == b.tail_ &&
           a.store_ == b.store_;
  }

 private:
  /// content_hash()'s slot: 0 until first computed (a curve whose hash
  /// is 0 recomputes it each time).  Copies carry the value along.
  class HashSlot {
   public:
    HashSlot() = default;
    HashSlot(const HashSlot& o) : v_(o.load()) {}
    HashSlot& operator=(const HashSlot& o) {
      v_.store(o.load(), std::memory_order_relaxed);
      return *this;
    }
    [[nodiscard]] std::uint64_t load() const {
      return v_.load(std::memory_order_relaxed);
    }
    void store(std::uint64_t v) const {
      v_.store(v, std::memory_order_relaxed);
    }

   private:
    mutable std::atomic<std::uint64_t> v_{0};
  };

  Staircase(SegmentStore store, Time horizon, std::optional<Tail> tail);

  /// Value lookup restricted to [0, horizon].
  [[nodiscard]] Work value_in_range(Time t) const;

  void check_invariants() const;

  SegmentStore store_;  // canonical; store_.time(0) == 0
  Time horizon_{0};
  std::optional<Tail> tail_;
  HashSlot hash_;
};

std::ostream& operator<<(std::ostream& os, const Staircase& f);

}  // namespace strt
