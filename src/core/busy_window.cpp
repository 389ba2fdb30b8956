#include "core/busy_window.hpp"

#include <string>

#include "base/assert.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"

namespace strt {

HorizonGuardError::HorizonGuardError(std::string_view analysis)
    : std::runtime_error(
          std::string(analysis) +
          ": horizon guard exceeded; utilization is too close to the "
          "supply rate for a tractable finitary analysis") {}

Time next_horizon(Time horizon, std::string_view analysis,
                  std::int64_t guard) {
  if (horizon.count() > guard) throw HorizonGuardError(analysis);
  return horizon * 2;
}

std::optional<BusyWindow> busy_window(engine::Workspace& ws,
                                      const DrtTask& task,
                                      const Supply& supply) {
  const std::optional<Rational> util = ws.utilization(task);
  if (util && *util >= supply.long_run_rate()) return std::nullopt;

  Time horizon = max(supply.min_horizon(), Time(64));
  for (;;) {
    const engine::CurvePtr wl = ws.rbf(task, horizon);
    const engine::CurvePtr sv = ws.sbf(supply, horizon);
    if (const std::optional<Time> L = first_catch_up(*wl, *sv)) {
      // Keep the full materialized curves: the supply tail stays valid
      // and inverse lookups up to rbf(L) <= sbf(L) resolve in range.
      return BusyWindow{*L, *wl, *sv};
    }
    horizon = next_horizon(horizon, "busy_window");
  }
}

Time busy_window_of_curves(const Staircase& wl, const Staircase& sv) {
  const std::optional<Time> L = first_catch_up(wl, sv);
  STRT_REQUIRE(L.has_value(),
               "no catch-up point within the materialized horizon; extend "
               "the curves");
  return *L;
}

}  // namespace strt
