#include "core/edf.hpp"

#include <algorithm>
#include <vector>

#include "base/assert.hpp"
#include "core/busy_window.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

EdfResult edf_schedulable(engine::Workspace& ws,
                          std::span<const DrtTask> tasks,
                          const Supply& supply) {
  STRT_REQUIRE(!tasks.empty(), "task set must not be empty");
  for (const DrtTask& t : tasks) {
    STRT_REQUIRE(t.has_frame_separation(),
                 "EDF test requires frame-separated tasks (exact dbf)");
  }
  const obs::Span span("edf.check");
  static obs::Counter& c_runs = obs::counter("edf.runs");
  c_runs.add(1);
  EdfResult res;

  Rational total(0);
  for (const DrtTask& t : tasks) {
    if (const std::optional<Rational> u = ws.utilization(t)) total += *u;
  }
  if (total >= supply.long_run_rate()) {
    res.overloaded = true;
    return res;
  }

  // The demand criterion only needs checking up to the system busy window
  // (dbf <= rbf pointwise, so demand has caught up once requests have).
  const Time L = rbf_catch_up(ws, tasks, supply, "edf_schedulable");
  res.horizon_checked = L;
  const Time horizon = max(L, base_horizon(supply));
  engine::CurvePtr sum_dbf = ws.intern(Staircase(horizon));
  for (const DrtTask& t : tasks) {
    sum_dbf = ws.pointwise_add(*sum_dbf, *ws.dbf(t, horizon));
  }
  const engine::CurvePtr sv = ws.sbf(supply, horizon);

  // Sweep the merged breakpoints of demand and supply up to L.
  std::vector<Time> ts;
  for (const Step& s : sum_dbf->steps())
    if (s.time <= L) ts.push_back(s.time);
  for (const Step& s : sv->steps())
    if (s.time <= L) ts.push_back(s.time);
  ts.push_back(L);
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());

  std::int64_t margin = std::numeric_limits<std::int64_t>::max();
  std::optional<Time> violation;
  for (Time t : ts) {
    const std::int64_t m = sv->value(t).count() - sum_dbf->value(t).count();
    margin = std::min(margin, m);
    if (m < 0 && !violation) violation = t;
  }
  res.margin = margin;
  res.schedulable = !violation.has_value();
  res.first_violation = violation;
  return res;
}

}  // namespace strt
