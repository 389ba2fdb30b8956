#include "graph/workload.hpp"

#include <unordered_map>
#include <vector>

#include "base/assert.hpp"

namespace strt {

namespace {

/// One-shot exploration of every span <= horizon - 1 feeding `of`.
template <class Of>
Staircase from_exploration(const DrtTask& task, Time horizon,
                           ExploreStats* stats, Of of) {
  STRT_REQUIRE(horizon >= Time(0), "horizon must be non-negative");
  if (horizon == Time(0)) return Staircase(horizon);
  Frontier paths(task, ExploreOptions{}, /*resumable=*/false);
  paths.extend(horizon - Time(1));
  if (stats) *stats = paths.stats(horizon - Time(1));
  return of(paths, horizon);
}

}  // namespace

Staircase rbf(const DrtTask& task, Time horizon, ExploreStats* stats) {
  return from_exploration(task, horizon, stats, rbf_of);
}

void append_rbf(const Frontier& paths, Time horizon, SegmentStore& out) {
  STRT_REQUIRE(!paths.aborted(), "an aborted exploration keeps no rbf");
  STRT_REQUIRE(horizon - Time(1) <= paths.limit(),
               "rbf horizon past the explored limit");
  const SegmentStore& kept = paths.rbf_steps();
  const std::size_t n = soa_upper_bound(kept.times(), horizon);
  for (std::size_t i = out.size(); i < n; ++i) {
    out.append(kept.time(i), kept.value(i));
  }
}

Staircase rbf_of(const Frontier& paths, Time horizon) {
  STRT_REQUIRE(horizon >= Time(0), "horizon must be non-negative");
  if (horizon == Time(0)) return Staircase(horizon);
  if (!paths.aborted()) {
    SegmentStore prefix;
    append_rbf(paths, horizon, prefix);
    return Staircase::from_segments(std::move(prefix), horizon);
  }
  // An aborted exploration has queued states it never popped; fold every
  // frontier state, as a view of it reports them.
  std::vector<Step> pts;
  paths.for_each_frontier(horizon - Time(1),
                          [&](std::int32_t, const PathState& s) {
                            pts.push_back(Step{s.elapsed + Time(1), s.work});
                          });
  return Staircase::from_points(std::move(pts), horizon);
}

Work dbf_point(const DrtTask& task, Time t) {
  STRT_REQUIRE(t >= Time(0), "dbf point must be non-negative");
  // g(v, tau) = demand of the best run starting at vertex v with tau ticks
  // of slack until the analysis deadline:
  //   g(v, tau) = [deadline(v) <= tau] * wcet(v)
  //             + max over edges (v -> u) of g(u, tau - separation).
  // Memoized, evaluated with an explicit stack (tau can be large).
  struct Frame {
    VertexId v;
    Time tau;
    std::size_t next_edge;
    Work best_children;
  };
  std::unordered_map<std::uint64_t, Work> memo;
  auto key = [&](VertexId v, Time tau) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))
            << 40) ^
           static_cast<std::uint64_t>(tau.count());
  };
  auto solved = [&](VertexId v, Time tau, Work* out) {
    if (tau <= Time(0)) {
      *out = Work(0);
      return true;
    }
    auto it = memo.find(key(v, tau));
    if (it == memo.end()) return false;
    *out = it->second;
    return true;
  };

  Work best = Work(0);
  for (VertexId root = 0;
       static_cast<std::size_t>(root) < task.vertex_count(); ++root) {
    Work rv;
    if (solved(root, t, &rv)) {
      best = max(best, rv);
      continue;
    }
    std::vector<Frame> stack{Frame{root, t, 0, Work(0)}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto out = task.out_edges(f.v);
      bool descended = false;
      while (f.next_edge < out.size()) {
        const DrtEdge& e =
            task.edges()[static_cast<std::size_t>(out[f.next_edge])];
        ++f.next_edge;
        const Time child_tau = f.tau - e.separation;
        Work cv;
        if (solved(e.to, child_tau, &cv)) {
          f.best_children = max(f.best_children, cv);
        } else {
          stack.push_back(Frame{e.to, child_tau, 0, Work(0)});
          descended = true;
          break;
        }
      }
      if (descended) continue;
      const DrtVertex& vert = task.vertex(f.v);
      const Work own = vert.deadline <= f.tau ? vert.wcet : Work(0);
      const Work total = own + f.best_children;
      memo[key(f.v, f.tau)] = total;
      const Frame done = f;
      stack.pop_back();
      if (!stack.empty()) {
        stack.back().best_children =
            max(stack.back().best_children, total);
      } else {
        best = max(best, total);
      }
      (void)done;
    }
  }
  return best;
}

Staircase dbf(const DrtTask& task, Time horizon, ExploreStats* stats) {
  STRT_REQUIRE(task.has_frame_separation(),
               "exact dbf staircase requires the frame separation "
               "property; use dbf_point for general deadlines");
  return from_exploration(task, horizon, stats, dbf_of);
}

Staircase dbf_of(const Frontier& paths, Time horizon) {
  STRT_REQUIRE(horizon >= Time(0), "horizon must be non-negative");
  const DrtTask& task = paths.task();
  STRT_REQUIRE(task.has_frame_separation(),
               "exact dbf staircase requires the frame separation "
               "property; use dbf_point for general deadlines");
  if (horizon == Time(0)) return Staircase(horizon);
  std::vector<Step> pts;
  paths.for_each_frontier(
      horizon - Time(1), [&](std::int32_t, const PathState& s) {
        const Time t = s.elapsed + task.vertex(s.vertex).deadline;
        if (t <= horizon) pts.push_back(Step{t, s.work});
      });
  return Staircase::from_points(std::move(pts), horizon);
}

}  // namespace strt
