// Finitary busy-window computation.
//
// For a workload with request bound rbf and a resource with supply bound
// sbf, every busy period is at most L = min{ t >= 1 : rbf(t) <= sbf(t) }
// ticks long.  L exists iff the workload's exact long-run rate is below
// the supply's; the analyses check that condition exactly (rationals)
// first.
//
// rbf_catch_up() finds L by streaming the tasks' explorations forward in
// small steps (graph/explore keeps each frontier's rbf as it goes) and
// sweeping only the newly covered range of the summed rbf.  A step goes
// from h to max(h + max(64, h/16), sbf^-1(sum rbf(h))): the summed rbf
// never falls, so L lies at or past the second term and the jump costs
// no overshoot.  Over each
// interval on which the sum is constant, the first instant the supply
// catches up is read off the supply's base-horizon curve and its exact
// tail (Staircase::inverse), so no supply curve is materialized per
// step.  The exploration stops at the step that closes the window, and
// the analyses then materialize their curves once, on
// max(L, base_horizon(supply)).
//
// The fitted abstractions (core/abstractions, core/chain, FP with a
// non-exact interference abstraction) fit a curve that itself depends on
// the horizon, so they keep a doubling search through next_horizon().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  Staircase rbf;    // materialized on [0, max(L, base_horizon(supply))]
  Staircase sbf;    // materialized on the same horizon, tail preserved
};

/// Horizon guard of the busy-window searches: a search that has not
/// closed its busy window past this many ticks gives up.  The busy window
/// exists whenever the utilization is below the supply rate, but a
/// utilization within a hair of the rate makes it astronomically long.
inline constexpr std::int64_t kMaxHorizon = std::int64_t{1} << 32;

/// Thrown by a busy-window search that passes its guard.  svc reports it
/// as the supply.near-overload diagnostic.
class HorizonGuardError : public std::runtime_error {
 public:
  explicit HorizonGuardError(std::string_view analysis);
};

/// The next horizon of a doubling search in `analysis`: twice `horizon`,
/// or HorizonGuardError once `horizon` is past `guard`.
[[nodiscard]] Time next_horizon(Time horizon, std::string_view analysis,
                                std::int64_t guard = kMaxHorizon);

/// Smallest horizon the analyses materialize curves on: the supply's
/// minimum horizon, and at least 64 ticks.
[[nodiscard]] Time base_horizon(const Supply& supply);

/// min{ t >= 1 : sum_i rbf_i(t) <= sbf(t) } over `tasks` on `supply`, by
/// the streamed search of the file comment.  The caller rules overload
/// out first.  Reads each task's shared frontier in `ws` (private
/// resumable frontiers, kept between steps, when caching is off).
/// Throws curve::CurveSizeError when the supply curve on L would have
/// more steps than the builders materialize, and HorizonGuardError(
/// analysis) when L lies past `guard` ticks -- each as soon as a lower
/// bound on L shows it, before exploring out to it.  Counts its steps in
/// the busy_window.steps counter.
[[nodiscard]] Time rbf_catch_up(engine::Workspace& ws,
                                std::span<const DrtTask* const> tasks,
                                const Supply& supply,
                                std::string_view analysis,
                                std::int64_t guard = kMaxHorizon);

/// rbf_catch_up() over every task of `tasks`.
[[nodiscard]] Time rbf_catch_up(engine::Workspace& ws,
                                std::span<const DrtTask> tasks,
                                const Supply& supply,
                                std::string_view analysis,
                                std::int64_t guard = kMaxHorizon);

/// L of a single DRT task on a supply; nullopt when the task's
/// utilization is not strictly below the supply rate (overload: no
/// finite busy window, delays unbounded).
[[nodiscard]] std::optional<Time> busy_window_length(engine::Workspace& ws,
                                                     const DrtTask& task,
                                                     const Supply& supply);

/// busy_window_length() plus the task's rbf and the supply's sbf,
/// materialized once from the `ws` cache.
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
