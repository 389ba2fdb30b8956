// EDF schedulability of structural task sets on a supply.
//
// The classical demand-bound criterion: the set is EDF-schedulable on the
// resource iff  sum_i dbf_i(t) <= sbf(t)  for every t up to the system
// busy window.  Requires frame-separated tasks (exact dbf staircases).
#pragma once

#include <optional>
#include <span>

#include "curves/staircase.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt {

struct EdfResult {
  bool schedulable{false};
  bool overloaded{false};
  /// First instant where demand exceeds supply (set iff !schedulable and
  /// !overloaded).
  std::optional<Time> first_violation;
  /// min over t of sbf(t) - dbf(t) (the demand margin; negative when
  /// unschedulable).  Unset on overload.
  std::optional<std::int64_t> margin;
  Time horizon_checked{0};
};

namespace engine {
class Workspace;
}  // namespace engine

/// Finds the system busy window by the streamed search of
/// core/busy_window.hpp (rbf_catch_up) and checks the summed dbf against
/// the supply up to it, materializing each curve once; rbf/dbf and the
/// task explorations are memoized across repeated calls in `ws`.
[[nodiscard]] EdfResult edf_schedulable(engine::Workspace& ws,
                                        std::span<const DrtTask> tasks,
                                        const Supply& supply);

}  // namespace strt
