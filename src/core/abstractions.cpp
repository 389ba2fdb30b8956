#include "core/abstractions.hpp"

#include <stdexcept>

#include "base/assert.hpp"
#include "base/checked.hpp"
#include "core/busy_window.hpp"
#include "core/curve_based.hpp"
#include "curves/builders.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"

namespace strt {

namespace {

/// Exact long-run rate of the abstraction (used for the overload check).
Rational abstraction_rate(engine::Workspace& ws, const DrtTask& task,
                          WorkloadAbstraction a) {
  switch (a) {
    case WorkloadAbstraction::kStructural:
    case WorkloadAbstraction::kExactCurve:
    case WorkloadAbstraction::kConcaveHull:
    case WorkloadAbstraction::kTokenBucket: {
      const std::optional<Rational> u = ws.utilization(task);
      return u.value_or(Rational(0));
    }
    case WorkloadAbstraction::kSporadicMinGap: {
      Time min_sep = Time::unbounded();
      for (const DrtEdge& e : task.edges()) {
        min_sep = min(min_sep, e.separation);
      }
      if (min_sep.is_unbounded()) return Rational(0);  // no edges
      return Rational(task.max_wcet().count(), min_sep.count());
    }
  }
  throw std::logic_error("unreachable");
}

Staircase token_bucket_fit(engine::Workspace& ws, const DrtTask& task,
                           const Staircase& exact, Time horizon) {
  const Rational rate =
      abstraction_rate(ws, task, WorkloadAbstraction::kTokenBucket);
  // Minimal integer burst b with  b + floor(rate*(t-1)) >= rbf(t)  for all
  // t in [1, horizon]; candidates at rbf steps.
  std::int64_t burst = task.max_wcet().count();
  for (const Step& s : exact.steps()) {
    if (s.value == Work(0)) continue;
    const std::int64_t linear =
        rate.is_zero()
            ? 0
            : checked::floor_div(
                  checked::mul(rate.num(), s.time.count() - 1), rate.den());
    burst = std::max(burst, s.value.count() - linear);
  }
  // alpha(t) = burst + floor(rate * (t-1)) for t >= 1.
  std::vector<Step> pts;
  pts.push_back(Step{Time(1), Work(burst)});
  if (!rate.is_zero()) {
    for (std::int64_t v = 1;; ++v) {
      const std::int64_t t = checked::add(
          1, checked::ceil_div(checked::mul(v, rate.den()), rate.num()));
      if (t > horizon.count()) break;
      pts.push_back(Step{Time(t), Work(burst + v)});
    }
  }
  return Staircase::from_points(std::move(pts), horizon);
}

Staircase sporadic_min_gap_fit(const DrtTask& task, Time horizon) {
  Time min_sep = Time::unbounded();
  for (const DrtEdge& e : task.edges()) min_sep = min(min_sep, e.separation);
  if (min_sep.is_unbounded()) {
    // Single job ever: constant curve.
    return Staircase::from_points({Step{Time(1), task.max_wcet()}}, horizon);
  }
  return curve::periodic_arrival(task.max_wcet(), min_sep, Time(0),
                                 max(horizon, min_sep + Time(1)))
      .truncated(horizon);
}

}  // namespace

Rational abstraction_long_run_rate(engine::Workspace& ws, const DrtTask& task,
                                   WorkloadAbstraction a) {
  return abstraction_rate(ws, task, a);
}

std::string_view abstraction_name(WorkloadAbstraction a) {
  switch (a) {
    case WorkloadAbstraction::kStructural:
      return "structural";
    case WorkloadAbstraction::kExactCurve:
      return "exact-curve";
    case WorkloadAbstraction::kConcaveHull:
      return "concave-hull";
    case WorkloadAbstraction::kTokenBucket:
      return "token-bucket";
    case WorkloadAbstraction::kSporadicMinGap:
      return "sporadic-min-gap";
  }
  return "?";
}

Staircase abstracted_arrival(engine::Workspace& ws, const DrtTask& task,
                             WorkloadAbstraction a, Time horizon) {
  STRT_REQUIRE(a != WorkloadAbstraction::kStructural,
               "the structural analysis is not a curve abstraction");
  const engine::CurvePtr exact = ws.rbf(task, horizon);
  switch (a) {
    case WorkloadAbstraction::kExactCurve:
      return *exact;
    case WorkloadAbstraction::kConcaveHull:
      return *ws.concave_hull_staircase(*exact);
    case WorkloadAbstraction::kTokenBucket:
      return token_bucket_fit(ws, task, *exact, horizon);
    case WorkloadAbstraction::kSporadicMinGap:
      return sporadic_min_gap_fit(task, horizon);
    case WorkloadAbstraction::kStructural:
      break;
  }
  throw std::logic_error("unreachable");
}

AbstractionResult delay_with_abstraction(engine::Workspace& ws,
                                         const DrtTask& task,
                                         const Supply& supply,
                                         WorkloadAbstraction a,
                                         const StructuralOptions& opts) {
  AbstractionResult res;
  if (abstraction_rate(ws, task, a) >= supply.long_run_rate()) {
    res.delay = Time::unbounded();
    res.backlog = Work::unbounded();
    res.busy_window = Time::unbounded();
    return res;
  }
  if (a == WorkloadAbstraction::kStructural) {
    const StructuralResult st = structural_delay(ws, task, supply, opts);
    res.delay = st.delay;
    res.backlog = st.backlog;
    res.busy_window = st.busy_window;
    return res;
  }
  // Fit the abstraction on a growing horizon until its busy window closes
  // comfortably inside the fitting horizon (the fit of hull and bucket
  // depends on the horizon; requiring L <= H/2 makes the fit stable).
  Time horizon = max(supply.min_horizon(), Time(64));
  for (;;) {
    const Staircase alpha = abstracted_arrival(ws, task, a, horizon);
    const engine::CurvePtr beta = ws.sbf(supply, horizon);
    const std::optional<Time> L = first_catch_up(alpha, *beta);
    if (L && *L * 2 <= horizon) {
      res.busy_window = *L;
      res.delay = hdev(alpha.truncated(*L), *beta);
      res.backlog = vdev(alpha, *beta, *L);
      return res;
    }
    horizon = next_horizon(horizon, "delay_with_abstraction");
  }
}

}  // namespace strt
