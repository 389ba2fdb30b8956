#include "engine/workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#if STRT_LOCKDEP
#include <source_location>
#endif

#include "base/assert.hpp"
#include "base/config.hpp"
#include "base/mutex.hpp"
#include "check/check.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "engine/fingerprint.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "snapshot/snapshot.hpp"

namespace strt::engine {

namespace {

/// Times one memo-table probe into the cache.lookup_ns histogram.  When
/// observability is disabled the constructor skips the clock read, so the
/// lookup paths keep their one-relaxed-load cost.
class LookupTimer {
 public:
  LookupTimer() : armed_(obs::enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~LookupTimer() {
    if (!armed_) return;
    static obs::Histogram& h = obs::histogram("cache.lookup_ns");
    h.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

  LookupTimer(const LookupTimer&) = delete;
  LookupTimer& operator=(const LookupTimer&) = delete;

 private:
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Stripes per memo-table family (power of two; fp & (kStripes - 1)
/// selects).  16 stripes keep the tables effectively contention-free for
/// any plausible thread count while costing ~16 mutexes per family.
inline constexpr std::size_t kStripes = 16;

/// Scoped stripe lock: MutexLock plus acquisition timing into the
/// cache.lock_wait_ns histogram, so striping's effect on contention is
/// measurable (a contended stripe shows up as a fat tail).  When
/// observability is disabled the clock reads are skipped.
class STRT_SCOPED_CAPABILITY StripeLock {
 public:
#if STRT_LOCKDEP
  // Lockdep labels lock-order edges by acquisition site: forward the
  // StripeLock *construction* site, so a witness chain names the
  // memo-family call site instead of this ctor's line -- and the
  // same-site nesting check sees each family as its own site.
  explicit StripeLock(Mutex& mu, const std::source_location& loc =
                                     std::source_location::current())
      STRT_ACQUIRE(mu) : mu_(mu) {
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      mu_.lock(loc);
      static obs::Histogram& h = obs::histogram("cache.lock_wait_ns");
      h.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    } else {
      mu_.lock(loc);
    }
  }
#else
  explicit StripeLock(Mutex& mu) STRT_ACQUIRE(mu) : mu_(mu) {
    if (obs::enabled()) {
      const auto t0 = std::chrono::steady_clock::now();
      mu_.lock();
      static obs::Histogram& h = obs::histogram("cache.lock_wait_ns");
      h.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    } else {
      mu_.lock();
    }
  }
#endif
  ~StripeLock() STRT_RELEASE() { mu_.unlock(); }

  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace

bool cache_enabled_default() {
  static const bool enabled = cfg::get_bool("STRT_CACHE", true);
  return enabled;
}

enum class Workspace::DerivedOp : std::uint8_t {
  kAdd,
  kConv,
  kLeftover,
  kHull,
};

struct Workspace::PseudoInverse::Entry {
  Mutex m;
  std::unordered_map<std::int64_t, Time> memo STRT_GUARDED_BY(m);
};

struct Workspace::Impl {
  struct TaskEntry {
    /// The largest-horizon materialization so far (source of truncations).
    CurvePtr max_curve;
    /// Every horizon already answered, for exact re-hits.
    std::map<std::int64_t, CurvePtr> by_horizon;
  };

  struct DerivedKey {
    std::uint8_t op;
    std::uint64_t a;
    std::uint64_t b;
    friend bool operator==(const DerivedKey&, const DerivedKey&) = default;
  };
  struct DerivedKeyHash {
    std::size_t operator()(const DerivedKey& k) const {
      return static_cast<std::size_t>(
          hash_combine(hash_combine(k.a, k.b), k.op));
    }
  };

  /// One stripe family: kStripes (mutex, table) pairs selected by a
  /// 64-bit key hash, so lookups about different keys almost never share
  /// a lock.  Every path keeps compute-outside-lock and first-insert-wins
  /// semantics, so striping is invisible to results -- two keys landing
  /// on the same stripe only cost contention, never correctness.
  template <class Table>
  struct Striped {
    struct Stripe {
      Mutex m;
      Table table STRT_GUARDED_BY(m);
    };
    std::array<Stripe, kStripes> stripes;
    [[nodiscard]] Stripe& of(std::uint64_t key_hash) {
      return stripes[key_hash & (kStripes - 1)];
    }
  };

  Striped<std::unordered_map<std::uint64_t, std::vector<CurvePtr>>> interned;

  Striped<std::unordered_map<std::uint64_t, TaskEntry>> rbfs;
  Striped<std::unordered_map<std::uint64_t, TaskEntry>> dbfs;

  Striped<std::map<std::pair<std::string, std::int64_t>, CurvePtr>> sbfs;

  Striped<std::unordered_map<DerivedKey, CurvePtr, DerivedKeyHash>> derived;

  Striped<std::unordered_map<std::uint64_t,
                             std::shared_ptr<PseudoInverse::Entry>>>
      inverses;

  Striped<std::unordered_map<std::uint64_t,
                             std::shared_ptr<const check::CheckResult>>>
      validations;

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> inverse_hits{0};
  std::atomic<std::uint64_t> inverse_misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> evicted_bytes{0};

  /// Bytes-budget eviction state.  A "group" is a top-level memo key --
  /// a task fingerprint (all its rbf/dbf horizons), a curve fingerprint
  /// (its interned storage, derived ops, inverses), or a
  /// supply-description hash (its sbf materializations) -- so one LRU
  /// decision drops a coherent unit of warmth.  Touch order is a relaxed
  /// atomic clock; the registry itself is a plain std::mutex (never
  /// strt::Mutex: it is a leaf lock consulted from inside the memo hot
  /// paths only while a budget is armed, and it must not feed lockdep
  /// edges).  Lock discipline: the registry lock is never held while a
  /// stripe lock is acquired, so it cannot participate in a cycle with
  /// the memo stripes.
  struct Group {
    std::uint64_t bytes = 0;       // interned-curve bytes attributed here
    std::uint64_t last_touch = 0;  // clock value of the latest hit/insert
  };
  struct EvictState {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Group> groups;
    /// Clock values at which currently-live BatchPins started: groups
    /// touched at or after the oldest pin are exempt from eviction.
    std::multiset<std::uint64_t> pins;
  };
  EvictState evict;
  std::atomic<std::uint64_t> touch_clock{0};
  std::atomic<std::uint64_t> budget{0};  // 0 = unlimited

  [[nodiscard]] bool budget_on() const {
    return budget.load(std::memory_order_relaxed) != 0;
  }

  /// Records activity on a group (and optionally attributes interned
  /// bytes to it).  No-op while no budget is armed, so the hit paths
  /// keep their lock-free cost in the default configuration.
  void touch_group(std::uint64_t group, std::uint64_t add_bytes = 0) {
    if (!budget_on()) return;
    const std::uint64_t now =
        touch_clock.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::lock_guard<std::mutex> lock(evict.mu);
    Group& g = evict.groups[group];
    g.last_touch = now;
    g.bytes += add_bytes;
  }

  void evict_to_budget(std::uint64_t target);
  void backfill_groups();
  void maybe_evict() {
    const std::uint64_t b = budget.load(std::memory_order_relaxed);
    if (b != 0 && bytes.load(std::memory_order_relaxed) > b) {
      evict_to_budget(b);
    }
  }

  void note_hit() {
    hits.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("cache.hits");
    c.add(1);
  }
  void note_miss() {
    misses.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("cache.misses");
    c.add(1);
  }
  void note_bytes(std::uint64_t n) {
    bytes.fetch_add(n, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter("cache.bytes");
    c.add(n);
  }
  void note_inverse(bool hit) {
    (hit ? inverse_hits : inverse_misses)
        .fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& ch = obs::counter("cache.inverse_hits");
    static obs::Counter& cm = obs::counter("cache.inverse_misses");
    (hit ? ch : cm).add(1);
  }
};

/// Drops least-recently-touched groups until the interned storage fits
/// `target` bytes (or every unpinned group is gone).  Victim selection
/// runs under the registry lock; the erase sweep then walks every
/// family stripe by stripe, so no two locks are ever held together.
/// Races with concurrent touches are benign: an entry inserted into a
/// victim group after selection survives the sweep of earlier stripes
/// or is recomputed on its next query -- results are unaffected either
/// way (bit-identity contract).
void Workspace::Impl::evict_to_budget(std::uint64_t target) {
  for (;;) {
    std::vector<std::uint64_t> victims;
    {
      const std::lock_guard<std::mutex> lock(evict.mu);
      const std::uint64_t held = bytes.load(std::memory_order_relaxed);
      if (held <= target || evict.groups.empty()) return;
      const std::uint64_t min_pin =
          evict.pins.empty() ? std::numeric_limits<std::uint64_t>::max()
                             : *evict.pins.begin();
      std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
      order.reserve(evict.groups.size());
      for (const auto& [group, info] : evict.groups) {
        // A group touched at or after the oldest live pin may be a batch
        // leader's in-flight warmth: never evict it.
        if (info.last_touch < min_pin) order.emplace_back(info.last_touch, group);
      }
      if (order.empty()) return;  // everything live is pinned
      std::sort(order.begin(), order.end());
      const std::uint64_t need = held - target;
      std::uint64_t covered = 0;
      for (const auto& [touch, group] : order) {
        victims.push_back(group);
        covered += evict.groups[group].bytes;
        if (covered >= need) break;
      }
      for (const std::uint64_t group : victims) evict.groups.erase(group);
    }

    const std::unordered_set<std::uint64_t> vset(victims.begin(),
                                                 victims.end());
    const auto hit = [&vset](std::uint64_t group) {
      return vset.find(group) != vset.end();
    };
    std::uint64_t freed = 0;
    for (auto& stripe : interned.stripes) {
      const StripeLock lock(stripe.m);
      for (auto it = stripe.table.begin(); it != stripe.table.end();) {
        if (hit(it->first)) {
          for (const CurvePtr& p : it->second) {
            freed += sizeof(Staircase) + p->store_bytes();
          }
          it = stripe.table.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto* family : {&rbfs, &dbfs}) {
      for (auto& stripe : family->stripes) {
        const StripeLock lock(stripe.m);
        for (auto it = stripe.table.begin(); it != stripe.table.end();) {
          it = hit(it->first) ? stripe.table.erase(it) : std::next(it);
        }
      }
    }
    for (auto& stripe : sbfs.stripes) {
      const StripeLock lock(stripe.m);
      for (auto it = stripe.table.begin(); it != stripe.table.end();) {
        const std::uint64_t group = std::hash<std::string>{}(it->first.first);
        it = hit(group) ? stripe.table.erase(it) : std::next(it);
      }
    }
    for (auto& stripe : derived.stripes) {
      const StripeLock lock(stripe.m);
      for (auto it = stripe.table.begin(); it != stripe.table.end();) {
        it = hit(it->first.a) ? stripe.table.erase(it) : std::next(it);
      }
    }
    for (auto& stripe : inverses.stripes) {
      const StripeLock lock(stripe.m);
      for (auto it = stripe.table.begin(); it != stripe.table.end();) {
        it = hit(it->first) ? stripe.table.erase(it) : std::next(it);
      }
    }
    for (auto& stripe : validations.stripes) {
      const StripeLock lock(stripe.m);
      for (auto it = stripe.table.begin(); it != stripe.table.end();) {
        it = hit(it->first) ? stripe.table.erase(it) : std::next(it);
      }
    }

    bytes.fetch_sub(freed, std::memory_order_relaxed);
    evictions.fetch_add(victims.size(), std::memory_order_relaxed);
    evicted_bytes.fetch_add(freed, std::memory_order_relaxed);
    static obs::Counter& c_evictions = obs::counter("cache.evictions");
    static obs::Counter& c_evicted = obs::counter("cache.evicted_bytes");
    c_evictions.add(victims.size());
    c_evicted.add(freed);
  }
}

/// Rebuilds the eviction registry from the live memo tables.  While no
/// budget is armed, touch_group() is a no-op (the memo hot paths stay
/// lock-free in the default configuration), so warmth accumulated in
/// that state has no group attribution.  On the unlimited -> budgeted
/// transition this walks every family and registers each top-level key
/// with last_touch = 0: older than any subsequent touch, so pre-budget
/// warmth is the first LRU victim.  Same lock discipline as the evict
/// sweep -- stripes are scanned one at a time, and the registry lock is
/// only taken afterwards with no stripe lock held.
void Workspace::Impl::backfill_groups() {
  std::unordered_map<std::uint64_t, std::uint64_t> found;  // group -> bytes
  for (auto& stripe : interned.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [fp, bucket] : stripe.table) {
      std::uint64_t sz = 0;
      for (const CurvePtr& p : bucket) sz += sizeof(Staircase) + p->store_bytes();
      found[fp] += sz;
    }
  }
  for (auto* family : {&rbfs, &dbfs}) {
    for (auto& stripe : family->stripes) {
      const StripeLock lock(stripe.m);
      for (const auto& [fp, entry] : stripe.table) found.emplace(fp, 0);
    }
  }
  for (auto& stripe : sbfs.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [key, curve] : stripe.table) {
      found.emplace(std::hash<std::string>{}(key.first), 0);
    }
  }
  for (auto& stripe : derived.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [key, curve] : stripe.table) found.emplace(key.a, 0);
  }
  for (auto& stripe : inverses.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [fp, entry] : stripe.table) found.emplace(fp, 0);
  }
  for (auto& stripe : validations.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [fp, entry] : stripe.table) found.emplace(fp, 0);
  }
  const std::lock_guard<std::mutex> lock(evict.mu);
  evict.groups.clear();
  for (const auto& [group, sz] : found) {
    evict.groups.emplace(group, Group{sz, 0});
  }
}

Workspace::Workspace() : Workspace(cache_enabled_default()) {}

Workspace::Workspace(bool caching)
    : impl_(std::make_unique<Impl>()), caching_(caching) {}

Workspace::Workspace(bool caching, std::uint64_t cache_bytes_budget)
    : Workspace(caching) {
  set_cache_bytes_budget(cache_bytes_budget);
}

Workspace::~Workspace() = default;

void Workspace::set_cache_bytes_budget(std::uint64_t bytes) {
  const std::uint64_t prev =
      impl_->budget.exchange(bytes, std::memory_order_relaxed);
  // Arming a budget over warmth accumulated while unlimited: that
  // warmth carries no group attribution yet, so rebuild the registry
  // before the first eviction decision.
  if (prev == 0 && bytes != 0) impl_->backfill_groups();
  impl_->maybe_evict();
}

std::uint64_t Workspace::cache_bytes_budget() const {
  return impl_->budget.load(std::memory_order_relaxed);
}

Workspace::BatchPin::~BatchPin() {
  if (ws_ == nullptr) return;
  Impl& impl = *ws_->impl_;
  const std::lock_guard<std::mutex> lock(impl.evict.mu);
  if (const auto it = impl.evict.pins.find(start_);
      it != impl.evict.pins.end()) {
    impl.evict.pins.erase(it);
  }
}

Workspace::BatchPin Workspace::pin_batch() {
  if (!caching_ || !impl_->budget_on()) return BatchPin(nullptr, 0);
  const std::uint64_t start =
      impl_->touch_clock.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    const std::lock_guard<std::mutex> lock(impl_->evict.mu);
    impl_->evict.pins.insert(start);
  }
  return BatchPin(this, start);
}

CurvePtr Workspace::intern(Staircase c) {
  if (!caching_) return std::make_shared<const Staircase>(std::move(c));
  const std::uint64_t fp = fingerprint(c);
  auto& stripe = impl_->interned.of(fp);
  CurvePtr result;
  bool inserted = false;
  {
    const StripeLock lock(stripe.m);
    std::vector<CurvePtr>& bucket = stripe.table[fp];
    for (const CurvePtr& p : bucket) {
      if (*p == c) {
        result = p;
        break;
      }
    }
    if (!result) {
      // A non-empty bucket here means two unequal curves share a 64-bit
      // content fingerprint.  Hash-consing stays correct (full equality
      // above decides), but every fingerprint-keyed memo table would then
      // conflate them -- flag it under STRT_VALIDATE.
      STRT_DCHECK(bucket.empty(),
                  "curve fingerprint collision: unequal curves share a hash");
      result = std::make_shared<const Staircase>(std::move(c));
      bucket.push_back(result);
      inserted = true;
    }
  }
  if (inserted) {
    const std::uint64_t sz = sizeof(Staircase) + result->store_bytes();
    impl_->note_bytes(sz);
    impl_->touch_group(fp, sz);
    // Online eviction: triggered outside the stripe lock, so the sweep
    // can take each stripe in turn without nesting.
    impl_->maybe_evict();
  } else {
    impl_->touch_group(fp);
  }
  return result;
}

std::shared_ptr<const check::CheckResult> Workspace::validate(
    const DrtTask& task) {
  if (!caching_) {
    return std::make_shared<const check::CheckResult>(check::check_task(task));
  }
  const std::uint64_t fp = task.fingerprint();
  auto& stripe = impl_->validations.of(fp);
  {
    const LookupTimer timer;
    const StripeLock lock(stripe.m);
    if (const auto it = stripe.table.find(fp); it != stripe.table.end()) {
      impl_->note_hit();
      impl_->touch_group(fp);
      return it->second;
    }
  }
  // Lint outside the lock; racers produce identical results (the pass is
  // pure) and the emplace below keeps the first one.
  auto result =
      std::make_shared<const check::CheckResult>(check::check_task(task));
  impl_->note_miss();
  {
    const StripeLock lock(stripe.m);
    const auto [it, inserted] = stripe.table.emplace(fp, result);
    if (!inserted) result = it->second;
  }
  impl_->touch_group(fp);
  return result;
}

CurvePtr Workspace::workload_curve(const DrtTask& task, Time horizon,
                                   bool demand) {
  const auto compute = [&] {
    return demand ? strt::dbf(task, horizon) : strt::rbf(task, horizon);
  };
  if (!caching_) {
    impl_->note_miss();
    return std::make_shared<const Staircase>(compute());
  }
  auto& family = demand ? impl_->dbfs : impl_->rbfs;
  const std::uint64_t fp = task.fingerprint();
  auto& stripe = family.of(fp);

  CurvePtr base;  // cached curve on a larger horizon, if any
  {
    const LookupTimer timer;
    const StripeLock lock(stripe.m);
    Impl::TaskEntry& e = stripe.table[fp];
    if (const auto hit = e.by_horizon.find(horizon.count());
        hit != e.by_horizon.end()) {
      impl_->note_hit();
      impl_->touch_group(fp);
      return hit->second;
    }
    if (e.max_curve && e.max_curve->horizon() > horizon) base = e.max_curve;
  }

  // Compute outside the lock: either truncate the wider materialization
  // (bit-identical to a fresh computation -- both are the canonical
  // staircase of the same horizon-independent function) or explore fresh.
  CurvePtr result;
  if (base) {
    result = intern(base->truncated(horizon));
    impl_->note_hit();
  } else {
    result = intern(compute());
    impl_->note_miss();
  }
  {
    const StripeLock lock(stripe.m);
    Impl::TaskEntry& e = stripe.table[fp];
    const auto [it, inserted] =
        e.by_horizon.emplace(horizon.count(), result);
    if (!inserted) result = it->second;  // a racer filled it; same bits
    if (!e.max_curve || e.max_curve->horizon() < horizon) {
      e.max_curve = result;
    }
  }
  impl_->touch_group(fp);
  return result;
}

CurvePtr Workspace::rbf(const DrtTask& task, Time horizon) {
  return workload_curve(task, horizon, /*demand=*/false);
}

CurvePtr Workspace::dbf(const DrtTask& task, Time horizon) {
  return workload_curve(task, horizon, /*demand=*/true);
}

CurvePtr Workspace::sbf(const Supply& supply, Time horizon) {
  if (!caching_) {
    impl_->note_miss();
    return std::make_shared<const Staircase>(supply.sbf(horizon));
  }
  // Exact-match keying only: sbf curves carry a periodic tail, which
  // truncation would drop, so horizon-extension reuse does not apply.
  auto key = std::make_pair(supply.describe(), horizon.count());
  // Eviction group: the supply description alone, so every horizon of
  // one supply ages (and is dropped) as a unit.
  const std::uint64_t group = std::hash<std::string>{}(key.first);
  auto& stripe = impl_->sbfs.of(hash_combine(
      group, static_cast<std::uint64_t>(key.second)));
  {
    const LookupTimer timer;
    const StripeLock lock(stripe.m);
    if (const auto it = stripe.table.find(key); it != stripe.table.end()) {
      impl_->note_hit();
      impl_->touch_group(group);
      return it->second;
    }
  }
  CurvePtr result = intern(supply.sbf(horizon));
  impl_->note_miss();
  {
    const StripeLock lock(stripe.m);
    const auto [it, inserted] = stripe.table.emplace(std::move(key), result);
    if (!inserted) result = it->second;
  }
  impl_->touch_group(group);
  return result;
}

CurvePtr Workspace::derived(DerivedOp op, const Staircase& f,
                            const Staircase* g) {
  const auto compute = [&]() -> Staircase {
    switch (op) {
      case DerivedOp::kAdd:
        return strt::pointwise_add(f, *g);
      case DerivedOp::kConv:
        return strt::minplus_conv(f, *g);
      case DerivedOp::kLeftover:
        return strt::leftover_service(f, *g);
      case DerivedOp::kHull:
        return strt::concave_hull_staircase(f);
    }
    throw std::logic_error("unreachable");
  };
  if (!caching_) {
    impl_->note_miss();
    return std::make_shared<const Staircase>(compute());
  }
  const Impl::DerivedKey key{static_cast<std::uint8_t>(op), fingerprint(f),
                             g != nullptr ? fingerprint(*g) : 0};
  auto& stripe = impl_->derived.of(Impl::DerivedKeyHash{}(key));
  {
    const LookupTimer timer;
    const StripeLock lock(stripe.m);
    if (const auto it = stripe.table.find(key); it != stripe.table.end()) {
      impl_->note_hit();
      impl_->touch_group(key.a);
      return it->second;
    }
  }
  CurvePtr result = intern(compute());
  impl_->note_miss();
  {
    const StripeLock lock(stripe.m);
    const auto [it, inserted] = stripe.table.emplace(key, result);
    if (!inserted) result = it->second;
  }
  impl_->touch_group(key.a);
  return result;
}

CurvePtr Workspace::pointwise_add(const Staircase& f, const Staircase& g) {
  return derived(DerivedOp::kAdd, f, &g);
}

CurvePtr Workspace::minplus_conv(const Staircase& f, const Staircase& g) {
  return derived(DerivedOp::kConv, f, &g);
}

CurvePtr Workspace::leftover_service(const Staircase& b,
                                     const Staircase& a) {
  return derived(DerivedOp::kLeftover, b, &a);
}

CurvePtr Workspace::concave_hull_staircase(const Staircase& f) {
  return derived(DerivedOp::kHull, f, nullptr);
}

Workspace::PseudoInverse Workspace::inverse_of(const Staircase& curve) {
  if (!caching_) return PseudoInverse(&curve, nullptr, this);
  const std::uint64_t fp = fingerprint(curve);
  std::shared_ptr<PseudoInverse::Entry> entry;
  {
    auto& stripe = impl_->inverses.of(fp);
    const StripeLock lock(stripe.m);
    auto& slot = stripe.table[fp];
    if (!slot) slot = std::make_shared<PseudoInverse::Entry>();
    entry = slot;
  }
  impl_->touch_group(fp);
  return PseudoInverse(&curve, std::move(entry), this);
}

Time Workspace::PseudoInverse::operator()(Work w) const {
  if (!entry_) return curve_->inverse(w);
  {
    const MutexLock lock(entry_->m);
    if (const auto it = entry_->memo.find(w.count());
        it != entry_->memo.end()) {
      owner_->impl_->note_inverse(true);
      return it->second;
    }
  }
  const Time t = curve_->inverse(w);
  owner_->impl_->note_inverse(false);
  const MutexLock lock(entry_->m);
  entry_->memo.emplace(w.count(), t);
  return t;
}

namespace {

/// Translates one shared curve into the wire representation.
snapshot::CurveRecord to_record(std::uint64_t fp, const Staircase& c) {
  snapshot::CurveRecord rec;
  rec.fp = fp;
  rec.horizon = c.horizon().count();
  if (c.tail().has_value()) {
    rec.has_tail = true;
    rec.tail_period = c.tail()->period.count();
    rec.tail_increment = c.tail()->increment.count();
  }
  rec.times.reserve(c.times().size());
  rec.values.reserve(c.values().size());
  for (const Time t : c.times()) rec.times.push_back(t.count());
  for (const Work v : c.values()) rec.values.push_back(v.count());
  return rec;
}

}  // namespace

bool Workspace::save_snapshot(const std::string& path, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!caching_) {
    if (error != nullptr) *error = "caching is off; nothing to snapshot";
    return false;
  }
  if (const std::uint64_t b = impl_->budget.load(std::memory_order_relaxed);
      b != 0) {
    impl_->evict_to_budget(b);  // the snapshot must itself fit the budget
  }

  snapshot::Snapshot snap;
  // Every curve any exported entry references, keyed by fingerprint.
  // add_curve() returns nullopt on a fingerprint collision between
  // unequal curves (astronomically rare): the colliding entry is simply
  // not exported, which only costs warmth.
  std::unordered_map<std::uint64_t, CurvePtr> exported;
  const auto add_curve =
      [&exported](const CurvePtr& p) -> std::optional<std::uint64_t> {
    const std::uint64_t fp = fingerprint(*p);
    const auto [it, inserted] = exported.emplace(fp, p);
    if (!inserted && *it->second != *p) return std::nullopt;
    return fp;
  };

  for (auto& stripe : impl_->interned.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [fp, bucket] : stripe.table) {
      if (bucket.size() == 1) (void)add_curve(bucket.front());
    }
  }
  for (const bool demand : {false, true}) {
    auto& family = demand ? impl_->dbfs : impl_->rbfs;
    auto& out = demand ? snap.dbf : snap.rbf;
    for (auto& stripe : family.stripes) {
      const StripeLock lock(stripe.m);
      for (const auto& [task_fp, entry] : stripe.table) {
        snapshot::WorkloadRecord rec;
        rec.task_fp = task_fp;
        rec.by_horizon.reserve(entry.by_horizon.size());
        for (const auto& [horizon, curve] : entry.by_horizon) {
          if (const auto fp = add_curve(curve)) {
            rec.by_horizon.emplace_back(horizon, *fp);
          }
        }
        if (!rec.by_horizon.empty()) out.push_back(std::move(rec));
      }
    }
  }
  for (auto& stripe : impl_->sbfs.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [key, curve] : stripe.table) {
      if (const auto fp = add_curve(curve)) {
        snap.sbf.push_back(snapshot::SupplyRecord{key.first, key.second, *fp});
      }
    }
  }
  for (auto& stripe : impl_->derived.stripes) {
    const StripeLock lock(stripe.m);
    for (const auto& [key, curve] : stripe.table) {
      if (const auto fp = add_curve(curve)) {
        snap.derived.push_back(
            snapshot::DerivedRecord{key.op, key.a, key.b, *fp});
      }
    }
  }

  snap.curves.reserve(exported.size());
  for (const auto& [fp, curve] : exported) {
    snap.curves.push_back(to_record(fp, *curve));
  }
  // Deterministic file bytes: hash-map walk order must not leak into
  // the snapshot (two saves of identical warmth produce identical
  // files, which CI diffs rely on).
  std::sort(snap.curves.begin(), snap.curves.end(),
            [](const auto& a, const auto& b) { return a.fp < b.fp; });
  std::sort(snap.rbf.begin(), snap.rbf.end(),
            [](const auto& a, const auto& b) { return a.task_fp < b.task_fp; });
  std::sort(snap.dbf.begin(), snap.dbf.end(),
            [](const auto& a, const auto& b) { return a.task_fp < b.task_fp; });
  std::sort(snap.sbf.begin(), snap.sbf.end(), [](const auto& a, const auto& b) {
    return std::tie(a.key, a.horizon) < std::tie(b.key, b.horizon);
  });
  std::sort(snap.derived.begin(), snap.derived.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.op, a.a, a.b) < std::tie(b.op, b.a, b.b);
            });

  if (!snapshot::write_file(path, snap, error)) return false;

  static obs::Counter& c_save_ns = obs::counter("snapshot.save_ns");
  c_save_ns.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  obs::gauge("snapshot.entries").set(
      static_cast<std::int64_t>(snap.entry_count()));
  return true;
}

bool Workspace::load_snapshot(const std::string& path, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  static obs::Counter& c_rejected = obs::counter("snapshot.rejected");
  const auto reject = [&](std::string reason) {
    c_rejected.add(1);
    if (error != nullptr) *error = std::move(reason);
    return false;
  };

  snapshot::LoadResult loaded = snapshot::read_file(path);
  if (loaded.status == snapshot::LoadResult::Status::kMissing) {
    if (error != nullptr) *error = "no snapshot at " + path;
    return false;  // a cold start, not a rejection
  }
  if (loaded.status == snapshot::LoadResult::Status::kRejected) {
    return reject(std::move(loaded.error));
  }
  if (!caching_) {
    if (error != nullptr) *error = "caching is off; snapshot not loaded";
    return false;
  }

  try {
    const snapshot::Snapshot& snap = loaded.snap;

    // Stage 1 -- validate and materialize everything before touching
    // the live tables, so a rejection leaves the workspace untouched
    // (clean cold start).  Every curve is rebuilt from its canonical
    // breakpoints and its content fingerprint recomputed: an entry only
    // enters a memo table under a key the engine itself would derive.
    std::unordered_map<std::uint64_t, CurvePtr> staged;
    staged.reserve(snap.curves.size());
    for (const snapshot::CurveRecord& rec : snap.curves) {
      std::string why;
      if (!snapshot::validate_curve(rec, &why)) {
        return reject("invalid curve record: " + why);
      }
      SegmentStore store;
      store.reserve(rec.times.size());
      for (std::size_t i = 0; i < rec.times.size(); ++i) {
        store.append(Time(rec.times[i]), Work(rec.values[i]));
      }
      std::optional<Tail> tail;
      if (rec.has_tail) {
        tail = Tail{Time(rec.tail_period), Work(rec.tail_increment)};
      }
      Staircase curve = Staircase::from_segments(std::move(store),
                                                 Time(rec.horizon), tail);
      if (fingerprint(curve) != rec.fp) {
        return reject("curve fingerprint mismatch");
      }
      const auto [it, inserted] = staged.emplace(
          rec.fp, std::make_shared<const Staircase>(std::move(curve)));
      if (!inserted) return reject("duplicate curve fingerprint");
    }
    const auto resolve = [&staged](std::uint64_t fp) -> const CurvePtr& {
      const auto it = staged.find(fp);
      if (it == staged.end()) {
        throw std::runtime_error("dangling curve reference");
      }
      return it->second;
    };
    for (const auto* family : {&snap.rbf, &snap.dbf}) {
      for (const snapshot::WorkloadRecord& rec : *family) {
        if (rec.by_horizon.empty()) return reject("empty workload record");
        for (const auto& [horizon, fp] : rec.by_horizon) {
          // The memo contract: the curve cached for horizon H is the
          // canonical staircase *on* [0, H] -- anything else would
          // poison horizon-extension truncation after reload.
          if (resolve(fp)->horizon().count() != horizon) {
            return reject("workload curve horizon mismatch");
          }
        }
      }
    }
    for (const snapshot::SupplyRecord& rec : snap.sbf) (void)resolve(rec.curve_fp);
    for (const snapshot::DerivedRecord& rec : snap.derived) {
      if (rec.op > static_cast<std::uint8_t>(DerivedOp::kHull)) {
        return reject("unknown derived op");
      }
      (void)resolve(rec.curve_fp);
    }

    // Stage 2 -- apply through the normal first-insert-wins inserts
    // (safe concurrently with serving and with other loaders/savers).
    std::unordered_map<std::uint64_t, CurvePtr> canon;
    canon.reserve(staged.size());
    for (const auto& [fp, curve] : staged) {
      canon.emplace(fp, intern(Staircase(*curve)));
    }
    for (const bool demand : {false, true}) {
      auto& family = demand ? impl_->dbfs : impl_->rbfs;
      const auto& recs = demand ? snap.dbf : snap.rbf;
      for (const snapshot::WorkloadRecord& rec : recs) {
        {
          auto& stripe = family.of(rec.task_fp);
          const StripeLock lock(stripe.m);
          Impl::TaskEntry& e = stripe.table[rec.task_fp];
          for (const auto& [horizon, fp] : rec.by_horizon) {
            e.by_horizon.emplace(horizon, canon.at(fp));
          }
          const CurvePtr& widest = e.by_horizon.rbegin()->second;
          if (!e.max_curve || e.max_curve->horizon() < widest->horizon()) {
            e.max_curve = widest;
          }
        }
        impl_->touch_group(rec.task_fp);
      }
    }
    for (const snapshot::SupplyRecord& rec : snap.sbf) {
      const std::uint64_t group = std::hash<std::string>{}(rec.key);
      {
        auto key = std::make_pair(rec.key, rec.horizon);
        auto& stripe = impl_->sbfs.of(hash_combine(
            group, static_cast<std::uint64_t>(key.second)));
        const StripeLock lock(stripe.m);
        stripe.table.emplace(std::move(key), canon.at(rec.curve_fp));
      }
      impl_->touch_group(group);
    }
    for (const snapshot::DerivedRecord& rec : snap.derived) {
      {
        const Impl::DerivedKey key{rec.op, rec.a, rec.b};
        auto& stripe = impl_->derived.of(Impl::DerivedKeyHash{}(key));
        const StripeLock lock(stripe.m);
        stripe.table.emplace(key, canon.at(rec.curve_fp));
      }
      impl_->touch_group(rec.a);
    }

    static obs::Counter& c_load_ns = obs::counter("snapshot.load_ns");
    c_load_ns.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    obs::gauge("snapshot.entries").set(
        static_cast<std::int64_t>(snap.entry_count()));
    return true;
  } catch (const std::exception& e) {
    return reject(std::string("snapshot load failed: ") + e.what());
  } catch (...) {
    return reject("snapshot load failed");
  }
}

WorkspaceStats Workspace::stats() const {
  WorkspaceStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.bytes = impl_->bytes.load(std::memory_order_relaxed);
  s.inverse_hits = impl_->inverse_hits.load(std::memory_order_relaxed);
  s.inverse_misses = impl_->inverse_misses.load(std::memory_order_relaxed);
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.evicted_bytes = impl_->evicted_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace strt::engine
