// strt::check -- domain lint for structural real-time workloads.
//
// The DRT/DATE-2015 analyses are only sound on well-formed inputs:
// connected release graphs with positive separations, positive execution
// times, monotone request/supply curves, long-run utilization strictly
// below the supply rate.  Nothing in the analysis layer re-validates
// those preconditions on every call -- these passes are the front gate
// that rejects a malformed model *before* explore/busy_window run on it.
//
// Two levels of checking:
//
//   * Spec level (TaskSpec): raw vertex/edge lists as a parser or
//     generator produced them, before DrtBuilder validation.  This is
//     where non-positive parameters and dangling edge endpoints are
//     reported as diagnostics instead of thrown exceptions, so a caller
//     (io/parse, strt-lint) can collect every problem in one pass.
//   * Model level (DrtTask, task sets, curves, GMF/recurring/sporadic):
//     semantic rules on successfully built models -- reachability and
//     cycle structure, frame separation, utilization versus the supply
//     rate, curve monotonicity and inverse-domain rules.
//
// Every pass is pure: it only reads its subject and returns a
// CheckResult.  Checking on or off never changes an analysis result, only
// whether a bad model is caught up front (bit-identity is enforced by
// tests/test_check.cpp).
//
// Observability: each pass bumps check.diagnostics / check.errors /
// check.time_ms on the global obs registry and runs under a "check" span.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "curves/staircase.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/drt.hpp"
#include "model/gmf.hpp"
#include "model/recurring.hpp"
#include "model/sporadic.hpp"
#include "resource/supply.hpp"

namespace strt::check {

/// Raw, not-yet-validated task description (what a parser or a generator
/// holds before DrtBuilder would accept or reject it).
struct TaskSpec {
  struct Vertex {
    std::string name;
    std::int64_t wcet{1};
    std::int64_t deadline{1};
  };
  struct Edge {
    std::int32_t from{0};
    std::int32_t to{0};
    std::int64_t separation{1};
  };

  std::string name;
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;
};

/// Structural well-formedness of a raw spec: drt.empty,
/// drt.nonpositive-wcet, drt.nonpositive-deadline,
/// drt.nonpositive-separation, drt.dangling-edge, drt.duplicate-vertex.
[[nodiscard]] CheckResult check_task_spec(const TaskSpec& spec);

/// Where the utilization rules get a task's long-run utilization: the
/// default computes it (graph/cycle_ratio); an engine::Workspace passes
/// its memo.
using UtilizationFn = std::function<std::optional<Rational>(const DrtTask&)>;

/// Semantic rules on a built task: drt.wcet-exceeds-deadline,
/// drt.overutilized, drt.dead-end, drt.transient, drt.acyclic,
/// drt.not-frame-separated, and drt.overflow when `util` throws
/// OverflowError.
[[nodiscard]] CheckResult check_task(const DrtTask& task,
                                     const UtilizationFn& util = utilization);

/// Validates `spec` (spec pass, then -- if the spec is error-free -- the
/// task pass on the built model) appending to `result`.  Returns the
/// built task unless spec-level errors prevent construction; task-level
/// findings do not block construction, gate on result.ok() instead.
[[nodiscard]] std::optional<DrtTask> build_task(const TaskSpec& spec,
                                                CheckResult& result);

/// Cross-task rules: set.overutilized (long-run utilizations sum to >= 1),
/// set.duplicate-task (same structural fingerprint appears twice).
[[nodiscard]] CheckResult check_task_set(
    std::span<const DrtTask> tasks, const UtilizationFn& util = utilization);

/// Workload-versus-resource gate: supply.overload when the utilization
/// sum reaches the supply's long-run rate (the busy-window iteration
/// diverges at or above it).
[[nodiscard]] CheckResult check_system(
    std::span<const DrtTask> tasks, const Supply& supply,
    const UtilizationFn& util = utilization);

/// Raw curve samples before Staircase::from_points canonicalizes them:
/// curve.negative (negative time or value), curve.non-monotone (a later
/// sample falls below an earlier one -- from_points would silently lift
/// it to the running max).
[[nodiscard]] CheckResult check_curve_points(std::span<const Step> points);

/// Arrival-curve role: curve.nonzero-origin when f(0) != 0 (an arrival
/// curve bounds work in an empty window by zero).
[[nodiscard]] CheckResult check_arrival_curve(const Staircase& f);

/// Supply-curve role: curve.nonzero-origin, plus curve.unbounded-inverse
/// when the sbf pseudo-inverse leaves its domain -- no periodic tail, or
/// a tail that never grows (inverse(w) is undefined or unbounded for
/// demand above the horizon value).
[[nodiscard]] CheckResult check_supply_curve(const Staircase& sbf);

/// GMF frame rules: gmf.overutilized (frame-sum wcet >= frame-sum
/// separation), gmf.wcet-exceeds-deadline, gmf.deadline-exceeds-separation
/// (frame separation lost).
[[nodiscard]] CheckResult check_gmf(const GmfTask& task);

/// Sporadic rules: sporadic.overutilized (wcet > period),
/// sporadic.wcet-exceeds-deadline.
[[nodiscard]] CheckResult check_sporadic(const SporadicTask& task);

/// Recurring-branching consistency, checked on the builder before build():
/// recurring.missing-restart (a leaf never returns to the root -- the
/// built DRT would dead-end), recurring.inconsistent-period (branches
/// imply different root-to-root periods).
[[nodiscard]] CheckResult check_recurring(const RecurringTaskBuilder& b);

}  // namespace strt::check
