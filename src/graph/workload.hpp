// Workload functions of a DRT task: request-bound and demand-bound.
#pragma once

#include <optional>

#include "curves/staircase.hpp"
#include "graph/drt.hpp"
#include "graph/explore.hpp"

namespace strt {

/// Request-bound function on [0, horizon]:
///   rbf(t) = max work released by any legal run in a half-open window of
///            length t (i.e. over paths whose span is at most t - 1).
/// Exact; computed by dominance-pruned path exploration.  The result has
/// no tail -- finitary callers extend the horizon and recompute.
[[nodiscard]] Staircase rbf(const DrtTask& task, Time horizon,
                            ExploreStats* stats = nullptr);

/// rbf on [0, horizon] read off an exploration of its task that covers
/// every span <= horizon - 1 (paths.limit() >= horizon - 1): a prefix
/// copy of the frontier's kept rbf (Frontier::rbf_steps), or a fold of
/// its frontier states if the exploration aborted.
[[nodiscard]] Staircase rbf_of(const Frontier& paths, Time horizon);

/// Streams rbf_of(paths, horizon)'s breakpoints: `out`, which holds them
/// through some earlier horizon (empty at first), gets the rest up to
/// `horizon` appended.  `paths` must not be aborted.
void append_rbf(const Frontier& paths, Time horizon, SegmentStore& out);

/// Demand-bound function at a single point:
///   dbf(t) = max over legal runs starting at 0 of the total work of jobs
///            with release >= 0 and absolute deadline <= t.
/// Exact for arbitrary deadlines (memoized DP over (vertex, slack)).
[[nodiscard]] Work dbf_point(const DrtTask& task, Time t);

/// Exact demand-bound staircase on [0, horizon] for tasks with the frame
/// separation property (deadline <= every outgoing separation); throws
/// std::invalid_argument otherwise.  Under frame separation the absolute
/// deadlines along a path are non-decreasing, so each explored path
/// contributes the single point (span + deadline(last), total work).
[[nodiscard]] Staircase dbf(const DrtTask& task, Time horizon,
                            ExploreStats* stats = nullptr);

/// The dbf staircase read off an exploration, like rbf_of().
[[nodiscard]] Staircase dbf_of(const Frontier& paths, Time horizon);

}  // namespace strt
