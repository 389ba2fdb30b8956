// Observability: log-bucketed latency/size histograms.
//
// A Histogram records non-negative 64-bit samples into HDR-style
// log-linear buckets: values 0..3 land in exact unit buckets, and every
// larger power-of-two octave is split into 4 linear sub-buckets, so any
// recorded value is attributed to a bucket whose width is at most 25% of
// its lower bound.  Quantile estimates read back the bucket upper edge,
// which bounds the relative overshoot by the same 25%.
//
// Recording is sharded per thread: each recording thread owns a private
// bucket array per histogram (created once, under the registry-style
// mutex), so the hot path is a relaxed atomic increment on memory no
// other recorder touches -- no lock, no contention, safe concurrent
// snapshots.  Shards of exited threads are retained, keep counting
// toward snapshots, and are adopted by threads that start recording later.
//
// Cost model matches counters.hpp: when observability is disabled a
// record() is one relaxed atomic load plus a branch; enabled records are
// a thread-local slot load plus three relaxed atomic RMWs.
//
// Obtain histograms via Registry::histogram() / obs::histogram(); like
// Counter cells they never move, so instrumented sites cache the
// reference in a function-local static.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace strt::obs {

/// Number of log-linear buckets (covers the full uint64 range).
inline constexpr std::size_t kHistogramBuckets = 256;

/// Bucket index of value `v` (0-based, < kHistogramBuckets).
[[nodiscard]] constexpr std::size_t histogram_bucket(std::uint64_t v) {
  if (v < 4) return static_cast<std::size_t>(v);
  // Octave = bit width - 1 (>= 2); 4 linear sub-buckets per octave.
  int msb = 0;
  for (std::uint64_t x = v; x > 1; x >>= 1) ++msb;
  const std::uint64_t sub = (v >> (msb - 2)) & 3u;
  return static_cast<std::size_t>((msb - 1) * 4 + static_cast<int>(sub));
}

/// Inclusive lower edge of bucket `i`.
[[nodiscard]] constexpr std::uint64_t histogram_bucket_lower(std::size_t i) {
  if (i < 4) return static_cast<std::uint64_t>(i);
  const int msb = static_cast<int>(i / 4) + 1;
  const std::uint64_t sub = static_cast<std::uint64_t>(i % 4);
  return (4u + sub) << (msb - 2);
}

/// Inclusive upper edge of bucket `i` (the largest value it can hold).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(std::size_t i) {
  if (i < 3) return static_cast<std::uint64_t>(i);
  if (i + 1 >= kHistogramBuckets * 2) return ~std::uint64_t{0};
  const std::uint64_t next = histogram_bucket_lower(i + 1);
  return next == 0 ? ~std::uint64_t{0} : next - 1;
}

/// A mergeable point-in-time view of one histogram: total count/sum/max
/// plus the raw bucket counts, with quantile readback.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Upper edge of the bucket holding the q-quantile sample (rank
  /// ceil(q*count)); 0 when empty.  Overshoots the exact order statistic
  /// by at most 25% (one bucket width).
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Mean of the recorded samples; 0 when empty.
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Pointwise accumulation (shard/worker rollup).
  void merge(const HistogramSnapshot& other);
};

/// A named sharded histogram.  Obtain via Registry::histogram(); never
/// constructed directly by instrumented code.
class Histogram {
 public:
  /// Records one sample if observability is enabled; no-op otherwise.
  void record(std::uint64_t value);

  /// Merged view over every thread shard.
  [[nodiscard]] HistogramSnapshot snapshot() const;

  Histogram();
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;

  struct Shard;

  /// Zeroes every shard (registration and shard ownership kept).
  void reset();

  /// The calling thread's shard, created on first use.
  [[nodiscard]] Shard& local_shard();

  struct Impl;
  Impl* impl_;
};

struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

/// Shorthand for Registry::global().histogram(name) -- intended use:
///   static obs::Histogram& h = obs::histogram("svc.request_latency_us");
///   h.record(us);
[[nodiscard]] Histogram& histogram(const std::string& name);

}  // namespace strt::obs
