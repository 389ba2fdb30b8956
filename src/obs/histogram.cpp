#include "obs/histogram.hpp"

#include <algorithm>
#include <utility>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/counters.hpp"

namespace strt::obs {

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.9999999);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // The max sample pins the top bucket's edge to an observed value.
      return std::min(histogram_bucket_upper(i), max);
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

/// One recording thread's private bucket array.  Only the owning thread
/// writes; snapshots read concurrently, hence the relaxed atomics.
struct Histogram::Shard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
};

struct Histogram::Impl {
  mutable Mutex mu;
  std::vector<std::unique_ptr<Shard>> shards STRT_GUARDED_BY(mu);
  /// Shards whose recording thread exited, adopted by the next new one.
  std::vector<Shard*> idle STRT_GUARDED_BY(mu);
  /// Distinct id per histogram instance, indexing the thread-local
  /// shard-pointer cache (see local_shard()).
  std::size_t id = 0;
};

namespace {

std::atomic<std::size_t> g_next_histogram_id{0};

}  // namespace

Histogram::Histogram() : impl_(new Impl) {
  impl_->id = g_next_histogram_id.fetch_add(1, std::memory_order_relaxed);
}

// Shards are leaked deliberately along with the Impl when the process
// tears down a registry-owned histogram: recording threads may still
// hold cached shard pointers during static destruction.  Registry cells
// are never destroyed in practice (the global registry leaks itself);
// this destructor exists for completeness only.
Histogram::~Histogram() = default;

Histogram::Shard& Histogram::local_shard() {
  // Per-thread cache: histogram id -> (Impl, this thread's shard).  Raw
  // pointers stay valid because Impls and shards are never deleted.  At
  // thread exit the shards go idle and keep their counts; the next thread
  // to record adopts one instead of adding a shard, so threads started per
  // call (exec helpers) do not grow the shard list.
  struct Local {
    std::vector<std::pair<Impl*, Shard*>> slots;
    ~Local() {
      for (const auto& [impl, shard] : slots) {
        if (shard == nullptr) continue;
        const MutexLock lock(impl->mu);
        impl->idle.push_back(shard);
      }
    }
  };
  thread_local Local tls;
  if (tls.slots.size() <= impl_->id) tls.slots.resize(impl_->id + 1);
  auto& [impl, slot] = tls.slots[impl_->id];
  if (slot == nullptr) {
    const MutexLock lock(impl_->mu);
    if (impl_->idle.empty()) {
      impl_->shards.push_back(std::make_unique<Shard>());
      slot = impl_->shards.back().get();
    } else {
      slot = impl_->idle.back();
      impl_->idle.pop_back();
    }
    impl = impl_;
  }
  return *slot;
}

void Histogram::record(std::uint64_t value) {
  if (!enabled()) return;
  Shard& s = local_shard();
  s.buckets[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t prev = s.max.load(std::memory_order_relaxed);
  while (prev < value && !s.max.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  const MutexLock lock(impl_->mu);
  for (const auto& shard : impl_->shards) {
    std::uint64_t recorded = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      const std::uint64_t n = shard->buckets[i].load(std::memory_order_relaxed);
      out.buckets[i] += n;
      recorded += n;
    }
    out.count += recorded;
    out.sum += shard->sum.load(std::memory_order_relaxed);
    out.max =
        std::max(out.max, shard->max.load(std::memory_order_relaxed));
  }
  return out;
}

void Histogram::reset() {
  const MutexLock lock(impl_->mu);
  for (const auto& shard : impl_->shards) {
    for (auto& b : shard->buckets) b.store(0, std::memory_order_relaxed);
    shard->sum.store(0, std::memory_order_relaxed);
    shard->max.store(0, std::memory_order_relaxed);
  }
}

Histogram& histogram(const std::string& name) {
  return Registry::global().histogram(name);
}

}  // namespace strt::obs
