#include "core/fixed_priority.hpp"

#include "base/assert.hpp"
#include "core/abstractions.hpp"
#include "core/busy_window.hpp"
#include "engine/workspace.hpp"
#include "curves/minplus.hpp"
#include "graph/workload.hpp"

namespace strt {

FpResult fixed_priority_analysis(engine::Workspace& ws,
                                 std::span<const DrtTask> tasks,
                                 const Supply& supply,
                                 const StructuralOptions& opts,
                                 WorkloadAbstraction interference) {
  if (interference == WorkloadAbstraction::kStructural) {
    interference = WorkloadAbstraction::kExactCurve;
  }
  STRT_REQUIRE(!tasks.empty(), "task set must not be empty");
  FpResult res;

  // Exact overload check against the *abstracted* interference rates (a
  // coarser abstraction can overload a supply the exact workload fits).
  Rational total(0);
  for (const DrtTask& t : tasks) {
    total += abstraction_long_run_rate(ws, t, interference);
  }
  if (total >= supply.long_run_rate()) {
    res.overloaded = true;
    return res;
  }

  // Materialize the exact request bounds (for the task under analysis),
  // the abstracted interference contributions, and the supply out to the
  // system-level busy window of the abstracted aggregate (which majorizes
  // the exact one, so every per-task busy window closes inside it).
  // Exact interference finds that window by the streamed search and
  // materializes once; a fitted abstraction depends on the horizon it is
  // fitted on, so it keeps the doubling search.
  const bool exact = interference == WorkloadAbstraction::kExactCurve;
  std::vector<engine::CurvePtr> rbfs;
  std::vector<engine::CurvePtr> contribs;
  engine::CurvePtr sv;
  const auto materialize = [&](Time horizon) {
    rbfs.clear();
    contribs.clear();
    for (const DrtTask& t : tasks) {
      rbfs.push_back(ws.rbf(t, horizon));
      contribs.push_back(
          exact ? rbfs.back()
                : ws.intern(abstracted_arrival(ws, t, interference, horizon)));
    }
    sv = ws.sbf(supply, horizon);
  };
  Time horizon = base_horizon(supply);
  if (exact) {
    res.system_busy_window =
        rbf_catch_up(ws, tasks, supply, "fixed_priority_analysis");
    horizon = max(horizon, res.system_busy_window);
    materialize(horizon);
  } else {
    for (;;) {
      materialize(horizon);
      engine::CurvePtr sum = ws.intern(Staircase(horizon));
      for (const engine::CurvePtr& c : contribs) {
        sum = ws.pointwise_add(*sum, *c);
      }
      if (const std::optional<Time> L = first_catch_up(*sum, *sv)) {
        res.system_busy_window = *L;
        break;
      }
      horizon = next_horizon(horizon, "fixed_priority_analysis");
    }
  }

  // Level i sees the leftover of the sum of every higher level's
  // interference; the sum grows by one level per iteration.
  res.tasks.reserve(tasks.size());
  engine::CurvePtr hp_sum = ws.intern(Staircase(horizon));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const engine::CurvePtr leftover = ws.leftover_service(*sv, *hp_sum);
    FpTaskResult tr;
    tr.task_index = i;

    StructuralResult st = structural_delay_vs(ws, tasks[i], *leftover, opts);
    tr.busy_window = st.busy_window;
    tr.structural_delay = st.delay;
    tr.structural_backlog = st.backlog;
    tr.stats = st.stats;
    tr.vertex_delays = std::move(st.vertex_delays);
    tr.meets_vertex_deadlines = st.meets_vertex_deadlines;

    const CurveResult cv = curve_delay_vs(*rbfs[i], *leftover);
    tr.curve_delay = cv.delay;
    tr.curve_backlog = cv.backlog;
    res.tasks.push_back(std::move(tr));
    hp_sum = ws.pointwise_add(*hp_sum, *contribs[i]);
  }
  return res;
}

}  // namespace strt
