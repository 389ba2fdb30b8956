#include "engine/workspace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/config.hpp"
#include "base/mutex.hpp"
#include "check/check.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "engine/fingerprint.hpp"
#include "engine/striped_memo.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/explore.hpp"
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
  /// One task's rbf (or dbf) materializations.  Created only once a curve
  /// is ready to store, so a compute that throws leaves no entry behind.
  struct TaskEntry {
    Mutex m;
    /// The largest-horizon materialization so far (source of truncations).
    CurvePtr max_curve STRT_GUARDED_BY(m);
    /// Every horizon already answered, for exact re-hits.
    std::map<std::int64_t, CurvePtr> by_horizon STRT_GUARDED_BY(m);
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

  /// (supply description, horizon).
  using SbfKey = std::pair<std::string, std::int64_t>;
  struct SbfKeyHash {
    std::size_t operator()(const SbfKey& k) const {
      return static_cast<std::size_t>(
          hash_combine(std::hash<std::string>{}(k.first),
                       static_cast<std::uint64_t>(k.second)));
    }
  };

  template <class Value>
  using FingerprintMemo = StripedMemo<std::uint64_t, Value, FingerprintHash>;

  FingerprintMemo<CurvePtr> interned;
  FingerprintMemo<std::shared_ptr<TaskEntry>> rbfs;
  FingerprintMemo<std::shared_ptr<TaskEntry>> dbfs;
  StripedMemo<SbfKey, CurvePtr, SbfKeyHash> sbfs;
  StripedMemo<DerivedKey, CurvePtr, DerivedKeyHash> derived;
  FingerprintMemo<std::shared_ptr<PseudoInverse::Entry>> inverses;
  FingerprintMemo<std::shared_ptr<const check::CheckResult>> validations;

  /// One task's shared exploration, extended in place under `m`.
  struct FrontierEntry {
    explicit FrontierEntry(const DrtTask& t)
        : task(t), paths(task, ExploreOptions{}) {}
    const DrtTask task;  // `paths` explores this copy
    Mutex m;
    Frontier paths STRT_GUARDED_BY(m);
    /// paths.bytes() already added to `bytes`.
    std::uint64_t counted_bytes STRT_GUARDED_BY(m) = 0;
    /// An extend() threw part-way; the frontier is not exact any more.
    bool broken STRT_GUARDED_BY(m) = false;
  };
  FingerprintMemo<std::shared_ptr<FrontierEntry>> frontiers;
  FingerprintMemo<std::shared_ptr<const std::optional<Rational>>>
      utilizations;

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> inverse_hits{0};
  std::atomic<std::uint64_t> inverse_misses{0};

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

  static std::shared_ptr<const std::optional<Rational>> utilization_entry(
      const DrtTask& task) {
    return std::make_shared<const std::optional<Rational>>(
        strt::utilization(task));
  }

  /// The memoized utilization of `task`, uncounted (the lookup nested in
  /// a validate computation is part of that one query).
  std::optional<Rational> utilization_of(const DrtTask& task) {
    const std::uint64_t fp = task.fingerprint();
    auto u = utilizations.find(fp);
    if (!u) u = utilizations.insert(fp, utilization_entry(task));
    return *u;
  }

  /// The exact-match memo path: a hit returns the cached value; a miss
  /// runs `compute` outside the lock and keeps whichever result was
  /// inserted first (racers compute identical artifacts).
  template <class Memo, class Key, class Compute>
  auto get_or_compute(
      Memo& memo, Key key, Compute&& compute,
      const std::source_location& loc = std::source_location::current()) {
    {
      const LookupTimer timer;
      if (auto hit = memo.find(key, loc)) {
        note_hit();
        return hit;
      }
    }
    auto result = compute();
    note_miss();
    return memo.insert(std::move(key), std::move(result), loc);
  }
};

Workspace::Workspace() : Workspace(cache_enabled_default()) {}

Workspace::Workspace(bool caching)
    : impl_(std::make_unique<Impl>()), caching_(caching) {}

Workspace::~Workspace() = default;

CurvePtr Workspace::intern(Staircase c) {
  if (!caching_) return std::make_shared<const Staircase>(std::move(c));
  const std::uint64_t fp = fingerprint(c);
  CurvePtr fresh;
  CurvePtr p = impl_->interned.find(fp);
  if (!p) {
    fresh = std::make_shared<const Staircase>(std::move(c));
    p = impl_->interned.insert(fp, fresh);
    if (p == fresh) {
      impl_->note_bytes(sizeof(Staircase) + p->store_bytes());
      return p;
    }
  }
  const bool same = *p == (fresh ? *fresh : c);
  // Unequal curves sharing a 64-bit content fingerprint stay correct but
  // unshared; every fingerprint-keyed memo table would conflate them, so
  // flag it under STRT_VALIDATE.
  STRT_DCHECK(same, "curve fingerprint collision: unequal curves share a hash");
  if (same) return p;
  return fresh ? fresh : std::make_shared<const Staircase>(std::move(c));
}

std::shared_ptr<const check::CheckResult> Workspace::validate(
    const DrtTask& task) {
  if (!caching_) {
    return std::make_shared<const check::CheckResult>(
        check::check_task(task));
  }
  const auto lint = [&] {
    return std::make_shared<const check::CheckResult>(check::check_task(
        task, [this](const DrtTask& t) { return impl_->utilization_of(t); }));
  };
  // The lint pass is pure, so racers produce identical results.
  return impl_->get_or_compute(impl_->validations, task.fingerprint(), lint);
}

std::optional<Rational> Workspace::utilization(const DrtTask& task) {
  if (!caching_) {
    impl_->note_miss();
    return strt::utilization(task);
  }
  return *impl_->get_or_compute(impl_->utilizations, task.fingerprint(),
                                [&] { return Impl::utilization_entry(task); });
}

void Workspace::explore(const DrtTask& task, const ExploreOptions& opts,
                        const std::function<void(const Frontier&)>& read) {
  const bool shared = caching_ && opts.prune && !opts.on_progress &&
                      opts.max_states == ExploreOptions{}.max_states;
  if (shared) {
    const std::uint64_t fp = task.fingerprint();
    std::shared_ptr<Impl::FrontierEntry> entry = impl_->frontiers.find(fp);
    if (!entry) {
      entry = impl_->frontiers.insert(
          fp, std::make_shared<Impl::FrontierEntry>(task));
    }
    std::exception_ptr failure;
    {
      const MutexLock lock(entry->m);
      if (!entry->broken) {
        try {
          entry->paths.extend(opts.elapsed_limit);
        } catch (...) {
          entry->broken = true;  // half-extended: never read again
          failure = std::current_exception();
        }
      }
      if (!entry->broken && !entry->paths.aborted()) {
        const std::uint64_t now = entry->paths.bytes();
        if (now > entry->counted_bytes) {
          impl_->note_bytes(now - entry->counted_bytes);
          entry->counted_bytes = now;
        }
        read(entry->paths);
        return;
      }
    }
    // A failed or aborted exploration is never memoized.
    impl_->frontiers.erase(fp, entry);
    if (failure) std::rethrow_exception(failure);
  }
  Frontier paths(task, opts, /*resumable=*/false);
  paths.extend(opts.elapsed_limit);
  read(paths);
}

CurvePtr Workspace::workload_curve(const DrtTask& task, Time horizon,
                                   bool demand) {
  if (!caching_) {
    impl_->note_miss();
    return std::make_shared<const Staircase>(demand ? strt::dbf(task, horizon)
                                                    : strt::rbf(task, horizon));
  }
  // Both read off the task's shared exploration.
  const auto compute = [&] {
    std::optional<Staircase> curve;
    explore(task,
            ExploreOptions{.elapsed_limit = max(Time(0), horizon - Time(1))},
            [&](const Frontier& paths) {
              curve = demand ? dbf_of(paths, horizon)
                             : rbf_of(paths, horizon);
            });
    return std::move(*curve);
  };
  auto& memo = demand ? impl_->dbfs : impl_->rbfs;
  const std::uint64_t fp = task.fingerprint();

  std::shared_ptr<Impl::TaskEntry> entry;
  CurvePtr base;  // cached curve on a larger horizon, if any
  {
    const LookupTimer timer;
    entry = memo.find(fp);
    if (entry) {
      const MutexLock lock(entry->m);
      if (const auto hit = entry->by_horizon.find(horizon.count());
          hit != entry->by_horizon.end()) {
        impl_->note_hit();
        return hit->second;
      }
      if (entry->max_curve && entry->max_curve->horizon() > horizon) {
        base = entry->max_curve;
      }
    }
  }

  // Compute outside the locks: either truncate the wider materialization
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
  if (!entry) entry = memo.insert(fp, std::make_shared<Impl::TaskEntry>());
  const MutexLock lock(entry->m);
  const auto [it, inserted] =
      entry->by_horizon.emplace(horizon.count(), result);
  if (!inserted) result = it->second;  // a racer filled it; same bits
  if (!entry->max_curve || entry->max_curve->horizon() < horizon) {
    entry->max_curve = result;
  }
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
  return impl_->get_or_compute(
      impl_->sbfs, Impl::SbfKey{supply.describe(), horizon.count()},
      [&] { return intern(supply.sbf(horizon)); });
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
  return impl_->get_or_compute(
      impl_->derived,
      Impl::DerivedKey{static_cast<std::uint8_t>(op), fingerprint(f),
                       g != nullptr ? fingerprint(*g) : 0},
      [&] { return intern(compute()); });
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
  std::shared_ptr<PseudoInverse::Entry> entry = impl_->inverses.find(fp);
  if (!entry) {
    entry = impl_->inverses.insert(
        fp, std::make_shared<PseudoInverse::Entry>());
  }
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

  impl_->interned.for_each(
      [&](std::uint64_t, const CurvePtr& p) { (void)add_curve(p); });
  for (const bool demand : {false, true}) {
    // Collect first, then lock each entry: never two locks at once.
    std::vector<std::pair<std::uint64_t, std::shared_ptr<Impl::TaskEntry>>>
        entries;
    (demand ? impl_->dbfs : impl_->rbfs)
        .for_each([&entries](std::uint64_t fp, const auto& e) {
          entries.emplace_back(fp, e);
        });
    auto& out = demand ? snap.dbf : snap.rbf;
    for (const auto& [task_fp, entry] : entries) {
      snapshot::WorkloadRecord rec;
      rec.task_fp = task_fp;
      const MutexLock lock(entry->m);
      rec.by_horizon.reserve(entry->by_horizon.size());
      for (const auto& [horizon, curve] : entry->by_horizon) {
        if (const auto fp = add_curve(curve)) {
          rec.by_horizon.emplace_back(horizon, *fp);
        }
      }
      if (!rec.by_horizon.empty()) out.push_back(std::move(rec));
    }
  }
  impl_->sbfs.for_each([&](const Impl::SbfKey& key, const CurvePtr& curve) {
    if (const auto fp = add_curve(curve)) {
      snap.sbf.push_back(snapshot::SupplyRecord{key.first, key.second, *fp});
    }
  });
  impl_->derived.for_each(
      [&](const Impl::DerivedKey& key, const CurvePtr& curve) {
        if (const auto fp = add_curve(curve)) {
          snap.derived.push_back(
              snapshot::DerivedRecord{key.op, key.a, key.b, *fp});
        }
      });

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
      auto& memo = demand ? impl_->dbfs : impl_->rbfs;
      for (const snapshot::WorkloadRecord& rec :
           demand ? snap.dbf : snap.rbf) {
        std::shared_ptr<Impl::TaskEntry> e = memo.find(rec.task_fp);
        if (!e) {
          e = memo.insert(rec.task_fp, std::make_shared<Impl::TaskEntry>());
        }
        const MutexLock lock(e->m);
        for (const auto& [horizon, fp] : rec.by_horizon) {
          e->by_horizon.emplace(horizon, canon.at(fp));
        }
        const CurvePtr& widest = e->by_horizon.rbegin()->second;
        if (!e->max_curve || e->max_curve->horizon() < widest->horizon()) {
          e->max_curve = widest;
        }
      }
    }
    for (const snapshot::SupplyRecord& rec : snap.sbf) {
      impl_->sbfs.insert(Impl::SbfKey{rec.key, rec.horizon},
                         canon.at(rec.curve_fp));
    }
    for (const snapshot::DerivedRecord& rec : snap.derived) {
      impl_->derived.insert(Impl::DerivedKey{rec.op, rec.a, rec.b},
                            canon.at(rec.curve_fp));
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
  return s;
}

}  // namespace strt::engine
