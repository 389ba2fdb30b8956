// Finitary busy-window computation.
//
// For a workload with request bound rbf and a resource with supply bound
// sbf, every busy period is at most L = min{ t >= 1 : rbf(t) <= sbf(t) }
// ticks long.  L exists iff the workload's exact long-run rate is below
// the supply's; this module checks that condition exactly (rationals) and
// then materializes both curves out to L with a doubling search.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "curves/staircase.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt {

namespace engine {
class Workspace;
}  // namespace engine

struct BusyWindow {
  Time length{0};   // L
  Staircase rbf;    // materialized on [0, L]
  Staircase sbf;    // materialized on [0, L], tail preserved
};

/// Horizon guard of the doubling searches: a search that has not closed
/// its busy window past this many ticks gives up.  The busy window exists
/// whenever the utilization is below the supply rate, but a utilization
/// within a hair of the rate makes it astronomically long.
inline constexpr std::int64_t kMaxHorizon = std::int64_t{1} << 32;

/// Thrown by next_horizon() when a doubling search passes its guard.  svc
/// reports it as the supply.near-overload diagnostic.
class HorizonGuardError : public std::runtime_error {
 public:
  explicit HorizonGuardError(std::string_view analysis);
};

/// The next horizon of a busy-window doubling search in `analysis`:
/// twice `horizon`, or HorizonGuardError once `horizon` is past `guard`.
[[nodiscard]] Time next_horizon(Time horizon, std::string_view analysis,
                                std::int64_t guard = kMaxHorizon);

/// Busy window of a single DRT task on a supply.  Returns nullopt when the
/// task's utilization is not strictly below the supply rate (overload: no
/// finite busy window, delays unbounded).  Serves the rbf/sbf
/// materializations (and their doubling-search re-extensions) from the
/// `ws` cache.
[[nodiscard]] std::optional<BusyWindow> busy_window(engine::Workspace& ws,
                                                    const DrtTask& task,
                                                    const Supply& supply);

/// Busy window of a pre-materialized workload curve against a service
/// curve: min{ t >= 1 : wl(t) <= sv(t) } within the curves' common
/// horizon.  Throws std::invalid_argument if not found there (the caller
/// materialized too little).
[[nodiscard]] Time busy_window_of_curves(const Staircase& wl,
                                         const Staircase& sv);

}  // namespace strt
