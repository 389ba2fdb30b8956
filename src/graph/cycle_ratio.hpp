// Long-run utilization of a DRT task: the maximum cycle ratio
//
//     U = max over cycles C of  (sum of wcet(v) for v in C)
//                             / (sum of separation(e) for e in C)
//
// computed exactly over the rationals.  U is the asymptotic slope of the
// request-bound function; the finitary busy-window analysis is feasible
// iff U is strictly below the long-run supply rate.
#pragma once

#include <optional>

#include "base/rational.hpp"
#include "graph/drt.hpp"

namespace strt {

/// Exact maximum cycle ratio; nullopt for acyclic graphs (the task can
/// only release finitely many jobs, long-run rate zero).
///
/// Algorithm: parametric search.  For a candidate ratio q = a/b, the test
/// graph with edge weights b*wcet(u) - a*separation(u,v) has a positive
/// cycle iff U > q and a zero-weight (but no positive) cycle iff U == q.
/// Candidates are driven by Stern-Brocot "simplest rational in the
/// interval" probes, one tree node per probe, so the probe count is the
/// sum of the partial quotients of U's continued fraction -- not
/// logarithmic: a one-vertex loop of wcet 1 and separation s takes about s
/// probes.  Each probe is a Bellman-Ford longest-path sweep, O(V * E).
[[nodiscard]] std::optional<Rational> utilization(const DrtTask& task);

namespace detail {

enum class CycleSign { kNegative, kZero, kPositive };

/// Sign of the best cycle of the parametric test graph at ratio a/b.
[[nodiscard]] CycleSign best_cycle_sign(const DrtTask& task,
                                        std::int64_t a, std::int64_t b);

/// Simplest rational strictly between lo and hi (both exclusive);
/// requires lo < hi.  "Simplest" = smallest denominator, then smallest
/// numerator.  Exposed for testing.
[[nodiscard]] Rational simplest_between(const Rational& lo,
                                        const Rational& hi);

}  // namespace detail
}  // namespace strt
