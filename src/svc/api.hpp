// strt::svc -- the unified analysis request/outcome API.
//
// Every analysis in the library is reachable through one entry point: an
// AnalysisRequest names the analysis kind, carries the task model(s) and
// the supply, one shared CommonOptions block, and the few kind-specific
// knobs; run_request() answers it with an AnalysisOutcome -- a tagged
// union of the kind's native result struct plus the validation
// diagnostics and per-request execution statistics.  The batch Service
// (svc/service.hpp) serves streams of these requests from a long-lived
// shared engine::Workspace; run_request() on a private workspace is the
// serial one-shot reference the service is bit-identical to.
//
// Request lifecycle (the same for one-shot and served requests):
//
//   validate -> (batch ->) dispatch -> outcome
//
//   * validate: every task passes the strt::check lint through the
//     memoized Workspace::validate front gate, plus the cross-task and
//     task-versus-supply passes.  Lint errors yield kInvalid without
//     running the analysis.
//   * dispatch: the kind's Workspace-overload analysis runs with options
//     assembled from the request's CommonOptions block.  A wall-clock
//     deadline and/or CancelToken is wired into the explorer's
//     progress/cancel hook, so long explorations stop mid-run.
//   * outcome: the native result struct, tagged by kind, with the
//     workspace cache hit/miss delta and wall times attached.
//
// Task-slot conventions per kind (extra tasks are a kInvalid outcome):
//
//   kStructural   tasks[0] on `supply`
//   kFp           tasks in priority order (index 0 highest)
//   kEdf          the whole set (frame-separated tasks)
//   kJointFp      tasks.back() is the low-priority task under analysis;
//                 every earlier task interferes at higher priority
//   kSensitivity  tasks[0] on `supply`
//   kAudsley      the candidate set (any order; the result is an order)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/types.hpp"
#include "check/diagnostics.hpp"
#include "obs/trace.hpp"
#include "core/audsley.hpp"
#include "core/common_options.hpp"
#include "core/edf.hpp"
#include "core/fixed_priority.hpp"
#include "core/joint_fp.hpp"
#include "core/sensitivity.hpp"
#include "core/structural.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt::engine {
class Workspace;
}  // namespace strt::engine

namespace strt::obs {
class RunReport;
}  // namespace strt::obs

namespace strt::svc {

enum class AnalysisKind : std::uint8_t {
  kStructural,
  kFp,
  kEdf,
  kJointFp,
  kSensitivity,
  kAudsley,
};

inline constexpr AnalysisKind kAllAnalysisKinds[] = {
    AnalysisKind::kStructural, AnalysisKind::kFp,
    AnalysisKind::kEdf,        AnalysisKind::kJointFp,
    AnalysisKind::kSensitivity, AnalysisKind::kAudsley,
};

/// Stable wire name ("structural", "fp", "edf", "joint_fp",
/// "sensitivity", "audsley").
[[nodiscard]] std::string_view kind_name(AnalysisKind k);

/// Inverse of kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<AnalysisKind> kind_from_name(std::string_view s);

/// Shared cancellation flag: keep a copy, hand the request a copy, call
/// cancel() from any thread.  The analysis observes it at every progress
/// callback and returns early with OutcomeStatus::kCancelled.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

struct AnalysisRequest {
  /// Caller-chosen correlation id, echoed in the outcome.
  std::uint64_t id = 0;
  AnalysisKind kind = AnalysisKind::kStructural;
  /// Task slots per kind: see the table in the header comment.
  std::vector<DrtTask> tasks;
  Supply supply = Supply::dedicated(1);

  /// The one shared options block: explorer state cap plus the
  /// progress/cancel hook (deadline/cancel checks are layered on top of
  /// any user hook set here).
  CommonOptions common;

  // Kind-specific knobs; kinds that do not read a knob ignore it.
  /// Dominance pruning (all exploration-backed kinds).
  bool prune = true;
  /// Reconstruct the witness path (kStructural only).
  bool want_witness = false;
  /// Interference-path cap (kJointFp).
  std::size_t max_paths = 200'000;
  /// Criterion delay cap (kSensitivity); unset => per-vertex deadlines.
  std::optional<Time> delay_cap;
  /// wcet slack search bound (kSensitivity).
  Work max_wcet_growth{1'000'000};

  /// Wall-clock budget for the request, measured from submission (or from
  /// run_request() entry for one-shot calls).  Expiring in the queue
  /// yields kDeadlineExpired without running; expiring mid-run cancels
  /// via the progress hook.
  std::optional<std::chrono::milliseconds> deadline;
  /// Cooperative cancellation; see CancelToken.
  std::optional<CancelToken> cancel;

  /// Request trace to record into.  Leave disengaged (the default) and the
  /// run starts a fresh trace; pass TraceContext::make() to correlate the
  /// request with caller-side spans.  The finished span tree comes back in
  /// AnalysisOutcome::trace either way.
  obs::TraceContext trace;
};

enum class OutcomeStatus : std::uint8_t {
  /// The analysis ran to completion; `result` holds the kind's struct.
  kOk,
  /// The validate front gate rejected the request (lint errors in
  /// `diagnostics`, or a task-slot arity violation in `error`), or the
  /// analysis found it outside the tractable domain: a busy window past
  /// the horizon guard is reported as the supply.near-overload
  /// diagnostic, a curve past the builders' step cap as curve.too-large.
  kInvalid,
  /// The service's admission queue was full (try_submit only).
  kRejected,
  /// The wall-clock budget expired before or during the run.  A partial
  /// result may be present: exploration bounds from an aborted run cover
  /// the explored prefix only (sound lower bounds).
  kDeadlineExpired,
  /// The CancelToken fired.  Same partial-result contract.
  kCancelled,
  /// The validate gate or the analysis threw; `error` holds the message.
  kError,
};

[[nodiscard]] std::string_view status_name(OutcomeStatus s);

/// Per-request execution statistics (the per-request face of strt::obs).
struct OutcomeStats {
  /// Submission-to-dispatch wait in microseconds (0 for one-shot runs).
  std::int64_t queue_us = 0;
  /// Analysis wall time in microseconds (validate + dispatch).
  std::int64_t run_us = 0;
  /// The request's batch grouping key (task-set + supply fingerprint).
  std::uint64_t batch_key = 0;
  /// Requests grouped into the same dispatch batch (1 for one-shot).
  std::size_t batch_size = 0;
  /// Workspace cache hit/miss delta over the run; for service batches the
  /// delta is measured per batch and repeated on each member.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// The tagged result union: which alternative is set follows the request
/// kind (monostate when the run never produced a result).
using AnalysisResult =
    std::variant<std::monostate, StructuralResult, FpResult, EdfResult,
                 JointFpResult, SensitivityReport, AudsleyResult>;

struct AnalysisOutcome {
  std::uint64_t id = 0;
  AnalysisKind kind = AnalysisKind::kStructural;
  OutcomeStatus status = OutcomeStatus::kError;
  /// Human-oriented failure description (kInvalid arity problems,
  /// kError exception messages, kRejected/kDeadlineExpired notes).
  std::string error;
  /// Findings of the validate front gate (may hold warnings even on kOk).
  check::CheckResult diagnostics;
  AnalysisResult result;
  OutcomeStats stats;
  /// The request's span tree: queue -> request { validate, run { explore,
  /// minplus.conv, ... } }, sorted by start time.  Always present; see
  /// obs/trace.hpp for the export formats.
  obs::RequestTrace trace;

  [[nodiscard]] bool ok() const { return status == OutcomeStatus::kOk; }

  /// Typed access to the result alternative; nullptr when not set or the
  /// outcome holds a different kind.
  [[nodiscard]] const StructuralResult* structural() const {
    return std::get_if<StructuralResult>(&result);
  }
  [[nodiscard]] const FpResult* fp() const {
    return std::get_if<FpResult>(&result);
  }
  [[nodiscard]] const EdfResult* edf() const {
    return std::get_if<EdfResult>(&result);
  }
  [[nodiscard]] const JointFpResult* joint_fp() const {
    return std::get_if<JointFpResult>(&result);
  }
  [[nodiscard]] const SensitivityReport* sensitivity() const {
    return std::get_if<SensitivityReport>(&result);
  }
  [[nodiscard]] const AudsleyResult* audsley() const {
    return std::get_if<AudsleyResult>(&result);
  }

  /// Folds the outcome into a run report: id/kind/status/headline result
  /// fields, the diagnostics summary, and the OutcomeStats numbers.
  void append_to_report(obs::RunReport& report) const;
};

/// Batch grouping key: tasks (order-sensitive, name-blind structural
/// fingerprints) plus the supply.  Two requests with equal keys share
/// every rbf/dbf/sbf/derived-curve memo in a warm workspace, whatever
/// their kinds.
[[nodiscard]] std::uint64_t request_fingerprint(const AnalysisRequest& req);

/// Serves one request from `ws`: validate -> dispatch -> outcome, as
/// described in the header comment.  This is the one-shot reference the
/// batch Service is bit-identical to; results depend only on the request
/// (never on workspace warmth, caching mode, or thread count).
[[nodiscard]] AnalysisOutcome run_request(engine::Workspace& ws,
                                          const AnalysisRequest& req);

/// One-shot convenience: spins up a private cold workspace.
[[nodiscard]] AnalysisOutcome run_request(const AnalysisRequest& req);

/// Service-internal variant: the deadline is an absolute time point
/// (measured from submission) instead of request-relative, and `admitted`
/// is the queue admission time -- when set, the outcome's queue span and
/// stats.queue_us cover admitted -> dispatch (otherwise both are zero).
[[nodiscard]] AnalysisOutcome run_request_at(
    engine::Workspace& ws, const AnalysisRequest& req,
    std::optional<std::chrono::steady_clock::time_point> deadline_at,
    std::optional<std::chrono::steady_clock::time_point> admitted = {});

}  // namespace strt::svc
