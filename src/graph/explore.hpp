// Dominance-pruned exploration of DRT release paths.
//
// The states of the exploration are triples (vertex, elapsed, work): some
// legal path releases its last job of type `vertex` exactly `elapsed`
// ticks after the path's first release, having released `work` total
// execution demand (including the last job).  Separations are taken at
// their minimum -- for every analysis in this library (request bounds,
// busy-window delay) denser is worse, so minimum-separation paths
// dominate their stretched variants.
//
// Dominance: at the same vertex, a state (elapsed', work') subsumes
// (elapsed, work) if elapsed' <= elapsed and work' >= work.  Both states
// have identical continuations (the DRT walk is memoryless), so every
// delay / request-bound candidate produced by the dominated state is
// matched or beaten by the dominator.  The surviving states per vertex
// form a Pareto skyline, kept sorted by elapsed time.
//
// Resumption: a Frontier is the exploration itself, kept between calls.
// extend(L) expands every state with elapsed <= L.  A resumable frontier
// still *accepts* children past its limit into the per-vertex skylines
// (and queues them), and only expands them on a later extend(L').  So
// every dominance decision matches a run at any larger limit, and a view
// at any L <= limit() -- arena, parents, frontier order, and all four
// stats -- is exactly what a fresh explore_paths(L) returns: children are
// strictly later than their parents, and a state past L can only evict
// skyline entries past L.  The stats of a view count only events at
// elapsed <= L, from per-tick cumulative counts.  explore_paths() is a
// one-shot frontier: it drops children past its limit, exactly as the
// explorer always did.
//
// Kept rbf: a live pop is final (its children are strictly later, so an
// entry at or below the cursor is never evicted), and pops come in
// elapsed order.  So the frontier keeps the request-bound staircase of
// its live pops -- the running max of (elapsed + 1, work) -- as it goes,
// already sorted: rbf on any horizon <= limit() + 1 is a prefix of it
// (graph/workload's rbf_of copies that prefix).  An aborted exploration
// has queued states it never popped, so its kept rbf is not used.
//
// This engine backs the structural delay analysis (core/structural) and
// the request-bound function computation (graph/workload); the ablation
// benchmark E6 runs it with pruning disabled to measure the effect.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hpp"
#include "curves/segment_store.hpp"
#include "graph/drt.hpp"
#include "graph/skyline.hpp"

namespace strt {

/// One surviving exploration state.  `parent` indexes the arena
/// (ExploreResult::arena); -1 for path-initial states.
struct PathState {
  VertexId vertex{0};
  Time elapsed{0};
  Work work{0};
  std::int32_t parent{-1};
};

struct ExploreStats {
  std::uint64_t generated{0};  // states created (before dominance check)
  std::uint64_t expanded{0};   // states whose successors were generated
  std::uint64_t pruned{0};     // states discarded by dominance
  /// True when the exploration was cut short -- cancelled by the progress
  /// callback or stopped at the max_states cap.  Results derived from an
  /// aborted run cover only the explored prefix: every reported bound is
  /// a sound *lower* bound on the worst case, not the worst case itself.
  bool aborted{false};
};

/// Periodic progress snapshot handed to ExploreOptions::on_progress.
struct ExploreProgress {
  std::uint64_t generated{0};
  std::uint64_t expanded{0};
  std::uint64_t pruned{0};
  /// States accepted into the arena so far (memory proxy).
  std::size_t arena_size{0};
  /// States queued awaiting expansion (frontier width).
  std::size_t frontier_width{0};
  /// Wall time since the exploration started, seconds.
  double elapsed_seconds{0.0};
  /// Expansion throughput over the whole run so far.
  double states_per_second{0.0};
};

/// Return true to continue, false to cancel the exploration (the partial
/// result is returned with stats.aborted set).
using ExploreProgressFn = std::function<bool(const ExploreProgress&)>;

struct ExploreOptions {
  /// Inclusive bound on `elapsed`; paths are not extended past it.
  Time elapsed_limit{0};
  /// Disable dominance pruning (every distinct (vertex, elapsed, work)
  /// reachable state is kept).  Exponential; ablation/testing only.
  bool prune{true};
  /// Hard cap on arena size to keep unpruned runs from exhausting memory.
  /// Reaching it stops the exploration and returns the partial result
  /// with stats.aborted set (the same contract as a progress-callback
  /// cancellation), so capped ablation runs report their explored prefix
  /// instead of dying.
  std::size_t max_states{50'000'000};
  /// Invoke `on_progress` every this many expanded states (0 = never).
  /// Long unpruned/ablation runs become observable and cancellable at
  /// the cost of one branch per expansion.
  std::uint64_t progress_every{0};
  ExploreProgressFn on_progress{};
};

struct ExploreResult {
  /// All states ever accepted, in expansion order; parents index into
  /// this arena, enabling witness-path reconstruction.
  std::vector<PathState> arena;
  /// Indices into `arena` of the final (undominated) states.
  std::vector<std::int32_t> frontier;
  ExploreStats stats;

  /// Reconstructs the release path ending in `arena[state]`, in release
  /// order (first job first).
  [[nodiscard]] std::vector<PathState> path_to(std::int32_t state) const;
};

/// A resumable exploration of one task (see the file comment).
class Frontier {
 public:
  /// Explores `task`, which must outlive the frontier, with the pruning,
  /// state cap and progress hook of `opts`; `opts.elapsed_limit` is
  /// ignored (extend() sets the limit).  A one-shot frontier
  /// (`resumable` false) drops children past its limit and can be
  /// extended once.
  Frontier(const DrtTask& task, ExploreOptions opts, bool resumable = true);

  /// Expands every state with elapsed <= limit (a no-op when limit() is
  /// already that far, or the exploration aborted).
  void extend(Time limit);

  /// Largest limit explored so far; Time(-1) before the first extend().
  [[nodiscard]] Time limit() const { return limit_; }
  [[nodiscard]] bool aborted() const { return totals_.aborted; }
  [[nodiscard]] const DrtTask& task() const { return *task_; }

  /// What explore_paths(limit) reports, for limit <= limit().  A one-shot
  /// frontier reports its own run whatever `limit` is.
  [[nodiscard]] ExploreStats stats(Time limit) const;

  /// Calls fn(arena index, state) for every state of explore_paths(limit)'s
  /// frontier, in its order.  Indices are this frontier's (see path_to).
  template <class Fn>
  void for_each_frontier(Time limit, Fn&& fn) const;

  /// The release path ending in arena state `state` (a for_each_frontier
  /// index), first job first.
  [[nodiscard]] std::vector<PathState> path_to(std::int32_t state) const;

  /// explore_paths(limit)'s result, for limit <= limit(), re-indexed.
  [[nodiscard]] ExploreResult view(Time limit) const;

  /// Canonical rbf breakpoints of the live pops so far (see the file
  /// comment), from (0, 0): exact through limit() + 1 unless aborted().
  [[nodiscard]] const SegmentStore& rbf_steps() const { return rbf_; }

  /// Approximate heap footprint.
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// Cumulative pop counts through one elapsed tick (resumable only).
  struct TickMark {
    std::int64_t tick;
    std::uint64_t popped;    // arena states at elapsed <= tick
    std::uint64_t expanded;  // expansions at elapsed <= tick
  };

  friend ExploreResult explore_paths(const DrtTask& task,
                                     const ExploreOptions& opts);

  [[nodiscard]] bool in_view(const PathState& s, Time limit) const {
    return !resumable_ || s.elapsed <= limit;
  }

  const DrtTask* task_;
  ExploreOptions opts_;
  bool resumable_;
  Time limit_{-1};
  Time max_separation_{0};
  std::vector<PathState> arena_;
  std::vector<FlatSkyline> skylines_;
  BucketQueue queue_{Time(0)};  // re-made for the reach by extend()
  std::vector<TickMark> marks_;
  SegmentStore rbf_;  // see rbf_steps()
  /// Whole-run stats (everything accepted, past the limit too).
  ExploreStats totals_;
  bool capped_ = false;
};

/// Explores all legal minimum-separation release paths of `task` whose
/// span fits within `opts.elapsed_limit`: a one-shot Frontier.
[[nodiscard]] ExploreResult explore_paths(const DrtTask& task,
                                          const ExploreOptions& opts);

template <class Fn>
void Frontier::for_each_frontier(Time limit, Fn&& fn) const {
  const auto at = [this](std::int32_t idx) -> const PathState& {
    return arena_[static_cast<std::size_t>(idx)];
  };
  if (opts_.prune) {
    for (const FlatSkyline& s : skylines_) {
      s.for_each_through(limit, [&](Time, Work, std::int32_t idx) {
        fn(idx, at(idx));
      });
    }
  } else {
    for (std::size_t i = 0; i < arena_.size(); ++i) {
      if (in_view(arena_[i], limit)) {
        fn(static_cast<std::int32_t>(i), arena_[i]);
      }
    }
  }
}

}  // namespace strt
