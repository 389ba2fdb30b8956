// Workload abstractions: the spectrum of analyses a structural workload
// can be pushed through, from the exact structural analysis down to the
// coarse abstractions classical tools use.
//
//   kStructural      busy-window path exploration (this paper).
//   kExactCurve      discrete hdev on the exact request-bound staircase.
//                    Provably equal to kStructural for a single stream:
//                    every rbf step is itself a Pareto path state, so the
//                    two candidate sets coincide (see tests).  Kept as an
//                    independent implementation and as the bridge result.
//   kConcaveHull     hdev on the concave PWL majorant of the rbf -- what
//                    classical RTC toolchains (linear curve segments)
//                    compute.  First abstraction with a real gap.
//   kTokenBucket     hdev on the (rate = exact utilization, minimal
//                    burst) token bucket fitted over the rbf.
//   kSporadicMinGap  hdev after abstracting the task as a sporadic task
//                    with the maximal wcet and the minimal separation --
//                    the structure-oblivious abstraction; often overloads
//                    outright.
//
// Soundness chain (pointwise curve domination =>):
//   observed <= kStructural = kExactCurve <= kConcaveHull
//            <= kTokenBucket <= kSporadicMinGap.
#pragma once

#include <string_view>

#include "core/structural.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt {

enum class WorkloadAbstraction {
  kStructural,
  kExactCurve,
  kConcaveHull,
  kTokenBucket,
  kSporadicMinGap,
};

[[nodiscard]] std::string_view abstraction_name(WorkloadAbstraction a);

inline constexpr WorkloadAbstraction kAllAbstractions[] = {
    WorkloadAbstraction::kStructural,    WorkloadAbstraction::kExactCurve,
    WorkloadAbstraction::kConcaveHull,   WorkloadAbstraction::kTokenBucket,
    WorkloadAbstraction::kSporadicMinGap,
};

struct AbstractionResult {
  /// Delay bound; Time::unbounded() when the abstraction overloads the
  /// supply (coarser abstractions overload earlier).
  Time delay{0};
  Work backlog{0};
  Time busy_window{0};
};

/// Delay/backlog bound of `task` on `supply` through abstraction `a`.
/// Shares memoized rbf/sbf/hull curves across abstractions and repeated
/// calls in `ws`.
[[nodiscard]] AbstractionResult delay_with_abstraction(
    engine::Workspace& ws, const DrtTask& task, const Supply& supply,
    WorkloadAbstraction a, const StructuralOptions& opts = {});

/// Exact long-run rate of an abstraction's arrival curve (equals the
/// task utilization except for kSporadicMinGap, which claims
/// max-wcet / min-separation).
/// The utilization comes from `ws`'s memo.
[[nodiscard]] Rational abstraction_long_run_rate(engine::Workspace& ws,
                                                 const DrtTask& task,
                                                 WorkloadAbstraction a);

/// The fitted arrival curve of an abstraction (not defined for
/// kStructural, which is not a curve).  `horizon` is the fitting horizon;
/// the exact rbf is computed on it first.
[[nodiscard]] Staircase abstracted_arrival(engine::Workspace& ws,
                                           const DrtTask& task,
                                           WorkloadAbstraction a,
                                           Time horizon);

}  // namespace strt
