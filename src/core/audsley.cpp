#include "core/audsley.hpp"

#include <algorithm>

#include "base/assert.hpp"
#include "core/busy_window.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
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
  Time horizon = max(supply.min_horizon(), Time(64));
  std::vector<engine::CurvePtr> rbfs;
  engine::CurvePtr sv;
  for (;;) {
    rbfs.clear();
    engine::CurvePtr sum = ws.intern(Staircase(horizon));
    for (const DrtTask& t : tasks) {
      rbfs.push_back(ws.rbf(t, horizon));
      sum = ws.pointwise_add(*sum, *rbfs.back());
    }
    sv = ws.sbf(supply, horizon);
    if (first_catch_up(*sum, *sv)) break;
    horizon = next_horizon(horizon, "audsley_assignment");
  }

  std::vector<std::size_t> unassigned(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) unassigned[i] = i;
  std::vector<std::size_t> reversed;  // lowest priority first

  StructuralOptions inner = opts;
  inner.want_witness = false;

  while (!unassigned.empty()) {
    // All candidates at this level are probed in parallel (speculative:
    // a serial run stops at the first fit).  The first fitting position
    // is selected and tests_run counts the probes the serial scan would
    // have made, so the result -- order, feasibility, tests_run -- is
    // bit-identical to a STRT_THREADS=1 run.
    const std::vector<char> fits =
        exec::parallel_map(unassigned.size(), [&](std::size_t pos) {
          const std::size_t cand = unassigned[pos];
          engine::CurvePtr hp_sum = ws.intern(Staircase(horizon));
          for (const std::size_t other : unassigned) {
            if (other == cand) continue;
            hp_sum = ws.pointwise_add(*hp_sum, *rbfs[other]);
          }
          const engine::CurvePtr leftover = ws.leftover_service(*sv, *hp_sum);
          const StructuralResult st =
              structural_delay_vs(ws, tasks[cand], *leftover, inner);
          return static_cast<char>(st.meets_vertex_deadlines);
        });
    const auto first_fit = std::find(fits.begin(), fits.end(), char{1});
    if (first_fit == fits.end()) {
      res.tests_run += unassigned.size();
      return res;  // no task fits at this level: infeasible
    }
    const auto pos =
        static_cast<std::size_t>(first_fit - fits.begin());
    res.tests_run += pos + 1;
    reversed.push_back(unassigned[pos]);
    unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  res.feasible = true;
  res.order.assign(reversed.rbegin(), reversed.rend());
  return res;
}

}  // namespace strt
