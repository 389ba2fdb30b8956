// strt::engine -- a memoizing analysis workspace.
//
// Every core analysis is built from the same few expensive artifacts: the
// exploration-backed request/demand-bound staircases rbf/dbf, materialized
// supply curves, pointwise sums, leftover-service curves, concave hulls,
// min-plus convolutions, and pseudo-inverse lookups on service curves.
// Sweeping callers (sensitivity probing, Audsley priority search, the
// joint-FP candidate loop, bench trial sweeps) recompute those artifacts
// with identical arguments over and over.
//
// A Workspace is the cache that makes curves first-class reusable
// artifacts:
//
//   * Hash-consing: every curve the workspace produces is interned by a
//     64-bit content fingerprint (full equality confirmed on fingerprint
//     match), so identical curves share one allocation and cache keys can
//     be compared cheaply.
//   * Workload curves rbf/dbf are memoized per task fingerprint
//     (graph/drt computes it at build time) with *horizon-extension
//     reuse*: a cached curve materialized to H' >= H answers the H query
//     by truncation.  Both rbf and dbf are exact canonical staircases of
//     a horizon-independent function, so the truncated answer is
//     bit-identical to a fresh computation (enforced by
//     tests/test_engine_equivalence.cpp).
//   * Supply curves, pointwise sums, leftover service, concave hulls, and
//     min-plus convolutions are memoized by operand fingerprints (exact
//     match).
//   * Pseudo-inverse lookups -- the hot loop of the structural analysis
//     -- are memoized per (curve, value) via inverse_of().
//   * One exploration per task: explore() keeps one resumable Frontier
//     (graph/explore) per task fingerprint, with its own mutex, and
//     extends it in place.  rbf/dbf misses read their staircases off it
//     and the structural analysis folds its frontier states and witness
//     from it, so the streamed busy-window search (core/busy_window)
//     costs one incremental exploration in total.  A view at any
//     explored limit is exactly a fresh explore_paths() there, so the
//     answers do not change.
//   * utilization() -- Dinkelbach iteration over Bellman-Ford sweeps, a
//     handful of probes -- is memoized per task fingerprint, for the
//     analyses' overload checks and the lint passes.
//
// Concurrency: a Workspace is safe to share across strt::exec parallel
// regions and with the svc::Service worker.  Every memo family is one
// StripedMemo<Key, Value> (engine/striped_memo.hpp): 16 (mutex, table)
// stripes selected by the key's hash -- task and curve fingerprints are
// their own hash -- so lookups about different systems almost never
// share a lock.  Its find() never inserts, its insert() keeps the first
// value (first insert wins), and its for_each() visits one stripe at a
// time.  Computations run outside the locks, so two threads may race to
// fill the same slot -- both compute the identical canonical artifact and
// the first insert wins, keeping cache-on results bit-identical to
// cache-off and to STRT_THREADS=1 runs.  Stripe acquisition time is
// recorded in the cache.lock_wait_ns histogram, so residual contention
// is measurable.
//
// Switching off: Workspace(false) -- or the environment variable
// STRT_CACHE=0 for workspaces built with the default constructor -- turns
// every method into a pass-through that computes fresh (counted as
// misses).  Results are bit-identical either way.
//
// Persistence: save_snapshot() serializes the curve-bearing memo
// families (interned curves, rbf/dbf with full horizon metadata, sbf,
// derived ops) into the versioned on-disk format strt.engine.snapshot.v2.
// Frontiers and utilizations are not persisted: a loaded rbf/dbf curve
// needs no exploration, and a frontier is rebuilt on the first query
// that does (the snapshot bytes stay those of the curve families alone).
// The format lives in src/snapshot/; files are written crash-safe via
// tmp+rename; load_snapshot() validates and replays a snapshot into the
// striped tables through the normal first-insert-wins inserts, so a
// restarted server answers a known corpus at warm speed from request
// one.  A malformed or corrupted snapshot is rejected whole (the
// snapshot.rejected counter) and the workspace cold-starts clean --
// loading never throws and never partially applies.  Because every
// entry is revalidated (record-level canonical form plus a recomputed
// content fingerprint per curve), warm-from-disk results stay
// bit-identical to cold computation.
//
// Observability: cache.hits / cache.misses / cache.bytes (plus
// cache.inverse_hits / cache.inverse_misses) are bumped on the global obs
// registry, so run reports and BENCH_*.json pick them up; stats() returns
// the same numbers per workspace.  Snapshot I/O reports snapshot.load_ns /
// snapshot.save_ns / snapshot.entries / snapshot.rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "base/rational.hpp"
#include "base/types.hpp"
#include "check/diagnostics.hpp"
#include "curves/staircase.hpp"
#include "graph/drt.hpp"
#include "graph/explore.hpp"
#include "resource/supply.hpp"

namespace strt::engine {

/// Shared immutable curve handle: the unit of hash-consing.
using CurvePtr = std::shared_ptr<const Staircase>;

struct WorkspaceStats {
  /// Curve-level queries answered from the cache (including horizon
  /// truncations of a larger cached curve).
  std::uint64_t hits{0};
  /// Curve-level queries that had to compute (all queries when caching is
  /// off).
  std::uint64_t misses{0};
  /// Approximate bytes of interned curve storage and memoized frontiers
  /// currently held.
  std::uint64_t bytes{0};
  /// Pseudo-inverse point lookups answered from / added to the memo.
  std::uint64_t inverse_hits{0};
  std::uint64_t inverse_misses{0};
};

/// True unless STRT_CACHE resolves to "0" via strt::cfg (resolved once,
/// on first use).
[[nodiscard]] bool cache_enabled_default();

class Workspace {
 public:
  /// Caching per STRT_CACHE (default: on).
  Workspace();
  /// Explicit caching switch (tests, ablations, --no-cache flags).
  explicit Workspace(bool caching);
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  [[nodiscard]] bool caching() const { return caching_; }

  /// Serializes the curve-bearing memo families to `path` in the
  /// versioned strt.engine.snapshot.v2 format, crash-safe (tmp+rename).
  /// False (reason in *error) on I/O failure, or with caching off
  /// ("caching is off; nothing to snapshot", no file written).
  bool save_snapshot(const std::string& path, std::string* error = nullptr);

  /// Validates and replays a snapshot into the memo tables (normal
  /// first-insert-wins inserts; safe concurrently with serving).  A
  /// missing file returns false quietly (cold start); a malformed file
  /// is rejected whole -- snapshot.rejected is bumped, *error gets the
  /// reason, no entry is applied, and the workspace stays clean.  Never
  /// throws.
  bool load_snapshot(const std::string& path, std::string* error = nullptr);

  /// Front gate: strt::check::check_task diagnostics for `task`, memoized
  /// by task fingerprint (the lint pass is pure, so one result serves
  /// every later query).  Callers gate on result->ok() before running the
  /// analyses; checking never changes what rbf/dbf return.
  [[nodiscard]] std::shared_ptr<const check::CheckResult> validate(
      const DrtTask& task);

  /// Exact request-bound staircase of `task` on [0, horizon]; memoized by
  /// task fingerprint with horizon-extension reuse.
  [[nodiscard]] CurvePtr rbf(const DrtTask& task, Time horizon);

  /// Exact demand-bound staircase (frame-separated tasks only; throws
  /// like strt::dbf otherwise); memoized like rbf().
  [[nodiscard]] CurvePtr dbf(const DrtTask& task, Time horizon);

  /// Exact long-run utilization (graph/cycle_ratio), memoized by task
  /// fingerprint.
  [[nodiscard]] std::optional<Rational> utilization(const DrtTask& task);

  /// Calls read(paths) on an exploration of `task` that covers every span
  /// <= opts.elapsed_limit; the reader views it at that limit
  /// (Frontier::stats / for_each_frontier / path_to), which is exactly
  /// explore_paths(task, opts).  The task's shared frontier is extended
  /// in place and read under its mutex, so `read` must not call back into
  /// explore() for the same task.  A private one-shot exploration serves
  /// instead when caching is off, or when `opts` asks for something the
  /// shared one does not do (no pruning, a progress hook, or a non-default
  /// state cap).  An aborted exploration is never memoized.
  void explore(const DrtTask& task, const ExploreOptions& opts,
               const std::function<void(const Frontier&)>& read);

  /// supply.sbf(horizon), memoized by (supply description, horizon).
  [[nodiscard]] CurvePtr sbf(const Supply& supply, Time horizon);

  /// Memoized curve algebra (operand-fingerprint keyed, exact match).
  [[nodiscard]] CurvePtr pointwise_add(const Staircase& f,
                                       const Staircase& g);
  [[nodiscard]] CurvePtr minplus_conv(const Staircase& f, const Staircase& g);
  [[nodiscard]] CurvePtr leftover_service(const Staircase& b,
                                          const Staircase& a);
  [[nodiscard]] CurvePtr concave_hull_staircase(const Staircase& f);

  /// Memoized pseudo-inverse view of one curve: obtain once per curve
  /// (pays one content hash), then call per value.  `curve` must outlive
  /// the returned object.  Thread-safe; lookups on the same curve share
  /// one memo across the workspace.
  class PseudoInverse {
   public:
    [[nodiscard]] Time operator()(Work w) const;

   private:
    friend class Workspace;
    struct Entry;
    PseudoInverse(const Staircase* curve, std::shared_ptr<Entry> entry,
                  Workspace* owner)
        : curve_(curve), entry_(std::move(entry)), owner_(owner) {}

    const Staircase* curve_;
    std::shared_ptr<Entry> entry_;  // null => pass-through (caching off)
    Workspace* owner_;
  };
  [[nodiscard]] PseudoInverse inverse_of(const Staircase& curve);

  /// Hash-conses `c`: returns the workspace's canonical shared instance
  /// (full equality checked on fingerprint collision).
  [[nodiscard]] CurvePtr intern(Staircase c);

  [[nodiscard]] WorkspaceStats stats() const;

 private:
  enum class DerivedOp : std::uint8_t;
  [[nodiscard]] CurvePtr derived(DerivedOp op, const Staircase& f,
                                 const Staircase* g);
  [[nodiscard]] CurvePtr workload_curve(const DrtTask& task, Time horizon,
                                        bool demand);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool caching_;
};

}  // namespace strt::engine
