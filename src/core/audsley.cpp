#include "core/audsley.hpp"

#include "base/assert.hpp"
#include "core/busy_window.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"

namespace strt {

AudsleyResult audsley_assignment(engine::Workspace& ws,
                                 std::span<const DrtTask> tasks,
                                 const Supply& supply,
                                 const StructuralOptions& opts) {
  STRT_REQUIRE(!tasks.empty(), "task set must not be empty");
  AudsleyResult res;

  Rational total(0);
  for (const DrtTask& t : tasks) {
    if (const std::optional<Rational> u = ws.utilization(t)) total += *u;
  }
  if (total >= supply.long_run_rate()) return res;  // infeasible

  // Materialize everything out to the system busy window once.
  const Time horizon =
      max(rbf_catch_up(ws, tasks, supply, "audsley_assignment"),
          base_horizon(supply));
  std::vector<engine::CurvePtr> rbfs;
  for (const DrtTask& t : tasks) rbfs.push_back(ws.rbf(t, horizon));
  const engine::CurvePtr sv = ws.sbf(supply, horizon);

  std::vector<std::size_t> unassigned(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) unassigned[i] = i;
  std::vector<std::size_t> reversed;  // lowest priority first

  StructuralOptions inner = opts;
  inner.want_witness = false;

  // Candidate at a level: does it meet its deadlines below every other
  // unassigned task?
  const auto fits = [&](std::size_t cand) {
    ++res.tests_run;
    engine::CurvePtr hp_sum = ws.intern(Staircase(horizon));
    for (const std::size_t other : unassigned) {
      if (other == cand) continue;
      hp_sum = ws.pointwise_add(*hp_sum, *rbfs[other]);
    }
    const engine::CurvePtr leftover = ws.leftover_service(*sv, *hp_sum);
    return structural_delay_vs(ws, tasks[cand], *leftover, inner)
        .meets_vertex_deadlines;
  };

  while (!unassigned.empty()) {
    // The lowest level goes to the first candidate that fits there.
    std::size_t pos = 0;
    while (pos < unassigned.size() && !fits(unassigned[pos])) ++pos;
    if (pos == unassigned.size()) return res;  // none fits: infeasible
    reversed.push_back(unassigned[pos]);
    unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  res.feasible = true;
  res.order.assign(reversed.rbegin(), reversed.rend());
  return res;
}

}  // namespace strt
