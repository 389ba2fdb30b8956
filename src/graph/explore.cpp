#include "graph/explore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "base/assert.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

/// Arena size of the most recent one-shot run, used to pre-size the next
/// one's arena: explorations repeat with near-identical state counts
/// inside sensitivity sweeps, joint-FP candidate loops, and bench trials,
/// so last run's size is a good reservation hint.  Atomic because runs
/// execute concurrently (sensitivity's parallel searches, bench trials).
std::atomic<std::size_t> g_arena_hint{0};

/// Never reserve more than this many states up front (a one-off huge
/// ablation run must not make every later small run allocate big).
constexpr std::size_t kMaxReserve = std::size_t{1} << 22;

std::vector<PathState> path_in(const std::vector<PathState>& arena,
                               std::int32_t state) {
  STRT_REQUIRE(state >= 0 &&
                   static_cast<std::size_t>(state) < arena.size(),
               "state index out of range");
  std::vector<PathState> path;
  for (std::int32_t i = state; i >= 0;
       i = arena[static_cast<std::size_t>(i)].parent) {
    path.push_back(arena[static_cast<std::size_t>(i)]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

std::vector<PathState> ExploreResult::path_to(std::int32_t state) const {
  return path_in(arena, state);
}

Frontier::Frontier(const DrtTask& task, ExploreOptions opts, bool resumable)
    : task_(&task), opts_(std::move(opts)), resumable_(resumable) {
  for (const DrtEdge& e : task.edges()) {
    max_separation_ = max(max_separation_, e.separation);
  }
  rbf_.append(Time(0), Work(0));
}

std::vector<PathState> Frontier::path_to(std::int32_t state) const {
  return path_in(arena_, state);
}

void Frontier::extend(Time limit) {
  STRT_REQUIRE(limit >= Time(0), "elapsed_limit must be non-negative");
  if (limit <= limit_ || totals_.aborted) return;
  const bool fresh = limit_ < Time(0);
  STRT_REQUIRE(fresh || resumable_, "a one-shot frontier extends once");
  const obs::Span span(fresh ? "explore" : "explore.extend");
  const ExploreStats before = totals_;
  limit_ = limit;

  // The clock is only consulted on the progress path; a run without a
  // callback never reads it.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point started =
      opts_.progress_every != 0 ? Clock::now() : Clock::time_point{};

  // Hitting the state cap stops the exploration and marks it aborted
  // (same contract as a progress-callback cancellation): the explored
  // prefix is sound, its bounds are lower bounds.
  const auto accept = [this](VertexId v, Time elapsed, Work work,
                             std::int32_t parent) {
    if (arena_.size() >= opts_.max_states) {
      capped_ = true;
      totals_.aborted = true;
      return;
    }
    ++totals_.generated;
    const auto idx = static_cast<std::int32_t>(arena_.size());
    if (opts_.prune &&
        !skylines_[static_cast<std::size_t>(v)].insert(elapsed, work, idx)) {
      ++totals_.pruned;
      if (resumable_) queue_.tally(elapsed);
      return;
    }
    arena_.push_back(PathState{v, elapsed, work, parent});
    queue_.push(elapsed, work, idx);
  };

  if (fresh) {
    // Monotone bucket queue over elapsed: children always have strictly
    // larger elapsed than their parent (separations are >= 1), so
    // buckets pop in order.  Within a bucket the queue hands out
    // work-descending order, so when a state is popped the skyline below
    // its elapsed is final and the liveness check is exact.  A child
    // lands at most one separation past its parent; the queue holds the
    // children past the limit aside until a later extend().
    queue_ = BucketQueue(max_separation_, limit);
    if (!resumable_) {
      arena_.reserve(std::min({g_arena_hint.load(std::memory_order_relaxed),
                               opts_.max_states, kMaxReserve}));
    }
    skylines_.resize(opts_.prune ? task_->vertex_count() : 0);
    for (VertexId v = 0;
         static_cast<std::size_t>(v) < task_->vertex_count(); ++v) {
      accept(v, Time(0), task_->vertex(v).wcet, -1);
    }
  } else {
    queue_.resume(limit);
  }

  Time elapsed(0);
  BucketQueue::Item item{};
  while (!capped_ && queue_.pop(elapsed, item)) {
    const PathState st = arena_[static_cast<std::size_t>(item.idx)];
    const bool live =
        !opts_.prune ||
        skylines_[static_cast<std::size_t>(st.vertex)].is_live(st.elapsed,
                                                               item.idx);
    if (resumable_) {
      if (marks_.empty() || marks_.back().tick != elapsed.count()) {
        TickMark next = marks_.empty() ? TickMark{0, 0, 0} : marks_.back();
        next.tick = elapsed.count();
        marks_.push_back(next);
      }
      ++marks_.back().popped;
      if (live) ++marks_.back().expanded;
    }
    if (!live) continue;  // dominated after insertion
    ++totals_.expanded;
    // The kept rbf (see rbf_steps()).  A bucket pops in work-descending
    // order, so only the first pop at a tick can raise the rbf there.
    if (st.work > rbf_.back_value()) {
      rbf_.append(st.elapsed + Time(1), st.work);
    }
    if (opts_.progress_every != 0 &&
        totals_.expanded % opts_.progress_every == 0 && opts_.on_progress) {
      ExploreProgress p;
      p.generated = totals_.generated;
      p.expanded = totals_.expanded;
      p.pruned = totals_.pruned;
      p.arena_size = arena_.size();
      p.frontier_width = queue_.size();
      p.elapsed_seconds =
          std::chrono::duration<double>(Clock::now() - started).count();
      p.states_per_second =
          p.elapsed_seconds > 0.0
              ? static_cast<double>(p.expanded) / p.elapsed_seconds
              : 0.0;
      if (!opts_.on_progress(p)) {
        totals_.aborted = true;
        break;
      }
    }
    for (std::int32_t ei : task_->out_edges(st.vertex)) {
      if (capped_) break;
      const DrtEdge& e = task_->edges()[static_cast<std::size_t>(ei)];
      const Time next = st.elapsed + e.separation;
      if (!resumable_ && next > limit) continue;
      accept(e.to, next, st.work + task_->vertex(e.to).wcet, item.idx);
    }
  }
  if (resumable_) {
    queue_.park();  // a paused frontier is kept: give back the ring
  } else {
    g_arena_hint.store(arena_.size(), std::memory_order_relaxed);
  }

  // Registry totals are bumped once per call (not per state), so the hot
  // loop carries no instrumentation cost at all.  explore.runs counts
  // fresh explorations, explore.extensions resumptions.
  static obs::Counter& c_runs = obs::counter("explore.runs");
  static obs::Counter& c_extensions = obs::counter("explore.extensions");
  static obs::Counter& c_generated = obs::counter("explore.generated");
  static obs::Counter& c_expanded = obs::counter("explore.expanded");
  static obs::Counter& c_pruned = obs::counter("explore.pruned");
  static obs::Counter& c_aborted = obs::counter("explore.aborted");
  static obs::Gauge& g_arena = obs::gauge("explore.arena_size");
  static obs::Gauge& g_frontier = obs::gauge("explore.frontier_width");
  static obs::Histogram& h_states = obs::histogram("explore.states");
  (fresh ? c_runs : c_extensions).add(1);
  c_generated.add(totals_.generated - before.generated);
  h_states.record(totals_.generated - before.generated);
  c_expanded.add(totals_.expanded - before.expanded);
  c_pruned.add(totals_.pruned - before.pruned);
  if (totals_.aborted) c_aborted.add(1);
  g_arena.set(static_cast<std::int64_t>(arena_.size()));
  if (obs::enabled()) {
    std::size_t width = 0;
    for_each_frontier(limit, [&width](std::int32_t, const PathState&) {
      ++width;
    });
    g_frontier.set(static_cast<std::int64_t>(width));
  }
}

ExploreStats Frontier::stats(Time limit) const {
  if (!resumable_) return totals_;
  STRT_REQUIRE(limit <= limit_, "view past the explored limit");
  const auto it = std::upper_bound(
      marks_.begin(), marks_.end(), limit.count(),
      [](std::int64_t key, const TickMark& m) { return key < m.tick; });
  const TickMark through =
      it == marks_.begin() ? TickMark{0, 0, 0} : *std::prev(it);
  ExploreStats s;
  s.pruned = queue_.tallied_through(limit);
  s.generated = through.popped + s.pruned;
  s.expanded = through.expanded;
  s.aborted = totals_.aborted;
  return s;
}

ExploreResult Frontier::view(Time limit) const {
  ExploreResult res;
  res.stats = stats(limit);
  // Old arena index -> view index; states past the limit map to -1.
  std::vector<std::int32_t> remap(arena_.size(), -1);
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    const PathState& s = arena_[i];
    if (!in_view(s, limit)) continue;
    remap[i] = static_cast<std::int32_t>(res.arena.size());
    res.arena.push_back(PathState{
        s.vertex, s.elapsed, s.work,
        s.parent < 0 ? -1 : remap[static_cast<std::size_t>(s.parent)]});
  }
  for_each_frontier(limit, [&](std::int32_t idx, const PathState&) {
    res.frontier.push_back(remap[static_cast<std::size_t>(idx)]);
  });
  return res;
}

std::size_t Frontier::bytes() const {
  std::size_t n = arena_.capacity() * sizeof(PathState) +
                  skylines_.capacity() * sizeof(FlatSkyline) +
                  marks_.capacity() * sizeof(TickMark) + queue_.bytes() +
                  rbf_.heap_bytes();
  for (const FlatSkyline& s : skylines_) n += s.bytes();
  return n;
}

ExploreResult explore_paths(const DrtTask& task, const ExploreOptions& opts) {
  Frontier f(task, opts, /*resumable=*/false);
  f.extend(opts.elapsed_limit);
  // A one-shot frontier holds nothing past its limit: its arena is the
  // result's as it stands.
  ExploreResult res;
  f.for_each_frontier(opts.elapsed_limit,
                      [&res](std::int32_t idx, const PathState&) {
                        res.frontier.push_back(idx);
                      });
  res.stats = f.totals_;
  res.arena = std::move(f.arena_);
  return res;
}

}  // namespace strt
