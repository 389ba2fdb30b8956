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
/// Algorithm: Dinkelbach's parametric Newton iteration.  For a candidate
/// ratio q = a/b, the test graph with edge weights
/// b*wcet(u) - a*separation(u,v) has a positive cycle iff U > q.  Each
/// probe is a Bellman-Ford longest-path sweep, O(V * E), that records one
/// parent edge per vertex; a relaxation in pass V leaves a positive cycle
/// among the parent edges, and q moves to that cycle's exact ratio, which
/// is strictly larger.  The first probe that relaxes nothing returns q.
/// Every iterate is the ratio of a real cycle, so the answer is exact;
/// the probe count is small in practice (one for a single loop, a handful
/// on the generated task sets) and is counted by the obs counter
/// `utilization.probes`.  Throws OverflowError if a test-graph weight
/// leaves int64.
[[nodiscard]] std::optional<Rational> utilization(const DrtTask& task);

}  // namespace strt
