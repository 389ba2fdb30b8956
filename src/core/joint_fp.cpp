#include "core/joint_fp.hpp"

#include <functional>
#include <stdexcept>
#include <vector>

#include "base/assert.hpp"
#include "core/busy_window.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

void accumulate(ExploreStats& into, const ExploreStats& s) {
  into.generated += s.generated;
  into.expanded += s.expanded;
  into.pruned += s.pruned;
  into.aborted = into.aborted || s.aborted;
}

/// Tighter than the default guard: the interference-path enumeration
/// below walks every path up to the busy window.
constexpr std::int64_t kJointHorizonGuard = std::int64_t{1} << 28;

/// True if a(t) <= b(t) for all t (checked at both breakpoint sets).
bool pointwise_leq(const Staircase& a, const Staircase& b) {
  for (const Step& s : a.steps()) {
    if (s.value > b.value(s.time)) return false;
  }
  for (const Step& s : b.steps()) {
    if (a.value(s.time) > s.value) return false;
  }
  return true;
}

/// Drops every staircase pointwise-dominated by another (keeping one copy
/// of ties).  As interference, a dominated curve is redundant: its
/// leftover majorizes the dominator's.
void prune_dominated(std::vector<Staircase>& cs) {
  std::vector<bool> dead(cs.size(), false);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (pointwise_leq(cs[j], cs[i])) {
        if (!pointwise_leq(cs[i], cs[j]) || i < j) dead[j] = true;
      }
    }
  }
  std::vector<Staircase> kept;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(cs[i]));
  }
  cs = std::move(kept);
}

/// Workload staircases of all maximal release paths of `task` with span
/// <= limit, materialized on `horizon`.
std::vector<Staircase> interference_paths(const DrtTask& task, Time limit,
                                          Time horizon,
                                          std::size_t max_paths,
                                          std::uint64_t& enumerated) {
  std::vector<Staircase> paths;
  std::vector<Step> points;
  std::function<void(VertexId, Time, Work)> dfs = [&](VertexId v, Time el,
                                                      Work w) {
    points.push_back(Step{el + Time(1), w});
    bool extended = false;
    for (std::int32_t ei : task.out_edges(v)) {
      const DrtEdge& e = task.edges()[static_cast<std::size_t>(ei)];
      const Time next = el + e.separation;
      if (next > limit) continue;
      extended = true;
      dfs(e.to, next, w + task.vertex(e.to).wcet);
    }
    if (!extended) {
      ++enumerated;
      if (enumerated > max_paths) {
        throw std::runtime_error(
            "joint FP analysis: interference-path cap exceeded; shrink the "
            "task or raise max_paths");
      }
      paths.push_back(Staircase::from_points(points, horizon));
    }
    points.pop_back();
  };
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    dfs(v, Time(0), task.vertex(v).wcet);
  }
  STRT_ASSERT(!paths.empty(), "at least one interference path exists");
  return paths;
}

}  // namespace

JointFpResult joint_multi_task_fp(engine::Workspace& ws,
                                  std::span<const DrtTask> hps,
                                  const DrtTask& lp, const Supply& supply,
                                  const JointFpOptions& opts) {
  const obs::Span span("joint_fp");
  static obs::Counter& c_runs = obs::counter("joint_fp.runs");
  c_runs.add(1);
  JointFpResult res;

  Rational total(0);
  for (const DrtTask& hp : hps) {
    if (const auto u = ws.utilization(hp)) total += *u;
  }
  if (const auto u = ws.utilization(lp)) total += *u;
  if (total >= supply.long_run_rate()) {
    res.overloaded = true;
    res.joint_delay = Time::unbounded();
    res.rbf_delay = Time::unbounded();
    return res;
  }

  // Materialize out to the system busy window.
  std::vector<const DrtTask*> all;
  for (const DrtTask& hp : hps) all.push_back(&hp);
  all.push_back(&lp);
  res.busy_window =
      rbf_catch_up(ws, all, supply, "joint FP analysis", kJointHorizonGuard);
  const Time horizon = max(res.busy_window, base_horizon(supply));
  engine::CurvePtr rbf_hp = ws.intern(Staircase(horizon));
  for (const DrtTask& hp : hps) {
    rbf_hp = ws.pointwise_add(*rbf_hp, *ws.rbf(hp, horizon));
  }
  const engine::CurvePtr sv = ws.sbf(supply, horizon);

  StructuralOptions sopts;
  sopts.common() = opts.common();
  sopts.prune = opts.prune;
  sopts.want_witness = false;

  // Baseline: rbf-based leftover.
  const engine::CurvePtr leftover_rbf = ws.leftover_service(*sv, *rbf_hp);
  const StructuralResult baseline =
      structural_delay_vs(ws, lp, *leftover_rbf, sopts);
  res.rbf_delay = baseline.delay;
  accumulate(res.explore_stats, baseline.stats);

  // Joint interference candidates: one consistent path per hp task,
  // summed; pruned after every fold to keep the cross product in check.
  const Time limit = max(Time(0), res.busy_window - Time(1));
  std::vector<Staircase> combined{Staircase(horizon)};
  {
    const obs::Span enum_span("joint_fp.enumerate");
    for (const DrtTask& hp : hps) {
      std::vector<Staircase> paths = interference_paths(
          hp, limit, horizon, opts.max_paths, res.paths_enumerated);
      prune_dominated(paths);
      std::vector<Staircase> next;
      if (combined.size() > opts.max_paths / std::max<std::size_t>(
                                                 paths.size(), 1)) {
        throw std::runtime_error(
            "joint FP analysis: interference cross-product cap exceeded");
      }
      next.reserve(combined.size() * paths.size());
      for (const Staircase& c : combined) {
        for (const Staircase& p : paths) {
          next.push_back(pointwise_add(c, p));
        }
      }
      prune_dominated(next);
      combined = std::move(next);
    }
  }

  {
    const obs::Span analyze_span("joint_fp.analyze");
    for (const Staircase& interference : combined) {
      const engine::CurvePtr leftover = ws.leftover_service(*sv, interference);
      const StructuralResult sr = structural_delay_vs(ws, lp, *leftover, sopts);
      ++res.paths_analyzed;
      accumulate(res.explore_stats, sr.stats);
      res.joint_delay = max(res.joint_delay, sr.delay);
    }
  }
  static obs::Counter& c_enumerated = obs::counter("joint_fp.paths_enumerated");
  static obs::Counter& c_analyzed = obs::counter("joint_fp.paths_analyzed");
  c_enumerated.add(res.paths_enumerated);
  c_analyzed.add(res.paths_analyzed);
  return res;
}

JointFpResult joint_two_task_fp(engine::Workspace& ws, const DrtTask& hp,
                                const DrtTask& lp, const Supply& supply,
                                const JointFpOptions& opts) {
  return joint_multi_task_fp(ws, {&hp, 1}, lp, supply, opts);
}

}  // namespace strt
