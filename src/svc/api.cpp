#include "svc/api.hpp"

#include <chrono>
#include <exception>
#include <span>
#include <utility>

#include "base/hash.hpp"
#include "check/check.hpp"
#include "core/busy_window.hpp"
#include "curves/builders.hpp"
#include "engine/fingerprint.hpp"
#include "engine/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace strt::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Progress cadence injected when a deadline or cancel token needs the
/// explorer hook but the caller did not ask for progress reporting.
constexpr std::uint64_t kCancelCheckEvery = 4096;

std::int64_t us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
      .count();
}

/// Task-slot arity rule per kind; nullptr when `count` is acceptable.
const char* arity_error(AnalysisKind kind, std::size_t count) {
  switch (kind) {
    case AnalysisKind::kStructural:
    case AnalysisKind::kSensitivity:
      if (count != 1) return "expects exactly one task";
      return nullptr;
    case AnalysisKind::kFp:
    case AnalysisKind::kEdf:
    case AnalysisKind::kJointFp:
    case AnalysisKind::kAudsley:
      if (count == 0) return "expects at least one task";
      return nullptr;
  }
  return "unknown analysis kind";
}

/// True when the run's exploration was cut short (cancel hook or state
/// cap).  Kinds without explorer statistics report false.
bool result_aborted(const AnalysisResult& result) {
  if (const auto* s = std::get_if<StructuralResult>(&result)) {
    return s->stats.aborted;
  }
  if (const auto* f = std::get_if<FpResult>(&result)) {
    for (const FpTaskResult& t : f->tasks) {
      if (t.stats.aborted) return true;
    }
    return false;
  }
  if (const auto* j = std::get_if<JointFpResult>(&result)) {
    return j->explore_stats.aborted;
  }
  return false;
}

/// Kinds whose result carries explorer statistics: for these, a deadline
/// is only reported expired when the exploration actually aborted (a run
/// that completed while crossing the wire stays kOk).
bool has_explore_stats(AnalysisKind kind) {
  return kind == AnalysisKind::kStructural || kind == AnalysisKind::kFp ||
         kind == AnalysisKind::kJointFp;
}

void put_time(obs::RunReport& report, std::string_view key, Time t) {
  if (t.is_unbounded()) {
    report.put(key, "unbounded");
  } else {
    report.put(key, t.count());
  }
}

}  // namespace

std::string_view kind_name(AnalysisKind k) {
  switch (k) {
    case AnalysisKind::kStructural: return "structural";
    case AnalysisKind::kFp: return "fp";
    case AnalysisKind::kEdf: return "edf";
    case AnalysisKind::kJointFp: return "joint_fp";
    case AnalysisKind::kSensitivity: return "sensitivity";
    case AnalysisKind::kAudsley: return "audsley";
  }
  return "unknown";
}

std::optional<AnalysisKind> kind_from_name(std::string_view s) {
  for (const AnalysisKind k : kAllAnalysisKinds) {
    if (kind_name(k) == s) return k;
  }
  return std::nullopt;
}

std::string_view status_name(OutcomeStatus s) {
  switch (s) {
    case OutcomeStatus::kOk: return "ok";
    case OutcomeStatus::kInvalid: return "invalid";
    case OutcomeStatus::kRejected: return "rejected";
    case OutcomeStatus::kDeadlineExpired: return "deadline_expired";
    case OutcomeStatus::kCancelled: return "cancelled";
    case OutcomeStatus::kError: return "error";
  }
  return "unknown";
}

std::uint64_t request_fingerprint(const AnalysisRequest& req) {
  std::uint64_t fp = mix64(0x5374725265714670ULL);  // "StrReqFp"
  fp = hash_combine(fp, req.tasks.size());
  for (const DrtTask& t : req.tasks) {
    fp = hash_combine(fp, t.fingerprint());
  }
  return hash_combine(fp, engine::fingerprint(req.supply));
}

namespace {

/// validate -> dispatch -> outcome, recording phase spans into `ctx`
/// (which the caller keeps live as the thread's active trace, so the
/// analyses' own obs::Span instrumentation nests under "run").
AnalysisOutcome run_request_core(engine::Workspace& ws,
                                 const AnalysisRequest& req,
                                 std::optional<Clock::time_point> deadline_at,
                                 const obs::TraceContext& ctx) {
  const obs::Span span("svc.request");
  static obs::Counter& c_requests = obs::counter("svc.requests");
  static obs::Counter& c_ok = obs::counter("svc.ok");
  static obs::Counter& c_invalid = obs::counter("svc.invalid");
  static obs::Counter& c_cancelled = obs::counter("svc.cancelled");
  static obs::Counter& c_expired = obs::counter("svc.deadline_expired");
  static obs::Counter& c_errors = obs::counter("svc.errors");
  c_requests.add(1);

  AnalysisOutcome out;
  out.id = req.id;
  out.kind = req.kind;
  out.stats.batch_key = request_fingerprint(req);
  out.stats.batch_size = 1;

  const Clock::time_point started = Clock::now();
  const engine::WorkspaceStats before = ws.stats();
  const auto finish = [&](OutcomeStatus status) -> AnalysisOutcome& {
    out.status = status;
    const engine::WorkspaceStats after = ws.stats();
    out.stats.cache_hits = (after.hits + after.inverse_hits) -
                           (before.hits + before.inverse_hits);
    out.stats.cache_misses = (after.misses + after.inverse_misses) -
                             (before.misses + before.inverse_misses);
    out.stats.run_us = us_between(started, Clock::now());
    switch (status) {
      case OutcomeStatus::kOk: c_ok.add(1); break;
      case OutcomeStatus::kInvalid: c_invalid.add(1); break;
      case OutcomeStatus::kCancelled: c_cancelled.add(1); break;
      case OutcomeStatus::kDeadlineExpired: c_expired.add(1); break;
      default: c_errors.add(1); break;
    }
    return out;
  };

  // Expired or cancelled before any work: answer without running.
  if (req.cancel && req.cancel->cancelled()) {
    out.error = "cancelled before dispatch";
    return finish(OutcomeStatus::kCancelled);
  }
  if (deadline_at && started >= *deadline_at) {
    out.error = "deadline expired before dispatch";
    return finish(OutcomeStatus::kDeadlineExpired);
  }

  // Everything from the lint gate on runs under one classification, so
  // an exception the gate throws (an OverflowError out of utilization(),
  // say) becomes an outcome like one the analyses throw.
  try {
    // Validate front gate: arity rule, then the memoized per-task lint,
    // then the cross-task and task-versus-supply passes.
    {
      obs::TraceSpanScope vspan(ctx, "validate");
      vspan.attr("tasks", static_cast<std::uint64_t>(req.tasks.size()));
      if (const char* msg = arity_error(req.kind, req.tasks.size())) {
        out.error = std::string(kind_name(req.kind)) + " " + msg;
        return finish(OutcomeStatus::kInvalid);
      }
      for (const DrtTask& task : req.tasks) {
        out.diagnostics.merge(check::CheckResult(*ws.validate(task)));
      }
      const check::UtilizationFn util = [&ws](const DrtTask& t) {
        return ws.utilization(t);
      };
      if (req.tasks.size() > 1) {
        out.diagnostics.merge(check::check_task_set(req.tasks, util));
      }
      out.diagnostics.merge(
          check::check_system(req.tasks, req.supply, util));
      if (!out.diagnostics.ok()) {
        out.error = "validation failed";
        return finish(OutcomeStatus::kInvalid);
      }
    }

    // Wire the deadline and the cancel token into the shared progress hook.
    CommonOptions eff = req.common;
    if (req.cancel || deadline_at) {
      if (eff.progress_every == 0) eff.progress_every = kCancelCheckEvery;
      const ExploreProgressFn user = eff.on_progress;
      const std::optional<CancelToken> token = req.cancel;
      eff.on_progress = [user, token, deadline_at](const ExploreProgress& p) {
        if (token && token->cancelled()) return false;
        if (deadline_at && Clock::now() >= *deadline_at) return false;
        return !user || user(p);
      };
    }

    obs::TraceSpanScope rspan(ctx, "run");
    rspan.attr("kind", kind_name(req.kind));
    switch (req.kind) {
      case AnalysisKind::kStructural: {
        StructuralOptions o;
        o.common() = eff;
        o.prune = req.prune;
        o.want_witness = req.want_witness;
        out.result = structural_delay(ws, req.tasks[0], req.supply, o);
        break;
      }
      case AnalysisKind::kFp: {
        StructuralOptions o;
        o.common() = eff;
        o.prune = req.prune;
        o.want_witness = false;
        out.result = fixed_priority_analysis(ws, req.tasks, req.supply, o);
        break;
      }
      case AnalysisKind::kEdf: {
        out.result = edf_schedulable(ws, req.tasks, req.supply);
        break;
      }
      case AnalysisKind::kJointFp: {
        JointFpOptions o;
        o.common() = eff;
        o.prune = req.prune;
        o.max_paths = req.max_paths;
        const std::span<const DrtTask> hps(req.tasks.data(),
                                           req.tasks.size() - 1);
        out.result =
            joint_multi_task_fp(ws, hps, req.tasks.back(), req.supply, o);
        break;
      }
      case AnalysisKind::kSensitivity: {
        SensitivityOptions o;
        o.common() = eff;
        o.delay_cap = req.delay_cap;
        o.max_wcet_growth = req.max_wcet_growth;
        out.result = sensitivity_analysis(ws, req.tasks[0], req.supply, o);
        break;
      }
      case AnalysisKind::kAudsley: {
        StructuralOptions o;
        o.common() = eff;
        o.prune = req.prune;
        o.want_witness = false;
        out.result = audsley_assignment(ws, req.tasks, req.supply, o);
        break;
      }
    }
  } catch (const HorizonGuardError& e) {
    // Utilization right under the supply rate: the lint gate passed (the
    // busy window exists) but it is too long to materialize.
    out.diagnostics.add(check::Severity::kError, "supply.near-overload",
                        req.supply.describe(), e.what());
    out.error = "busy window past the horizon guard";
    return finish(OutcomeStatus::kInvalid);
  } catch (const curve::CurveSizeError& e) {
    // The busy window is finite and inside the guard, but a curve on it
    // would pass the builders' step cap.
    out.diagnostics.add(check::Severity::kError, "curve.too-large",
                        req.supply.describe(), e.what());
    out.error = "curve past the step cap";
    return finish(OutcomeStatus::kInvalid);
  } catch (const std::exception& e) {
    out.error = e.what();
    return finish(OutcomeStatus::kError);
  }

  if (req.cancel && req.cancel->cancelled()) {
    out.error = "cancelled mid-run; bounds cover the explored prefix only";
    return finish(OutcomeStatus::kCancelled);
  }
  if (deadline_at && Clock::now() >= *deadline_at &&
      (result_aborted(out.result) || !has_explore_stats(req.kind))) {
    out.error = "deadline expired mid-run; partial result";
    return finish(OutcomeStatus::kDeadlineExpired);
  }
  return finish(OutcomeStatus::kOk);
}

}  // namespace

AnalysisOutcome run_request_at(
    engine::Workspace& ws, const AnalysisRequest& req,
    std::optional<Clock::time_point> deadline_at,
    std::optional<Clock::time_point> admitted) {
  obs::TraceContext ctx = req.trace ? req.trace : obs::TraceContext::make();

  // The queue phase: admission -> dispatch (empty for one-shot runs).
  // Recorded as a root-level span so the timeline reads queue | request.
  const std::int64_t dispatched_us = obs::trace_now_us();
  const std::int64_t admitted_us =
      admitted ? obs::trace_time_us(*admitted) : dispatched_us;
  ctx.add_complete_span("queue", admitted_us, dispatched_us);

  AnalysisOutcome out;
  {
    obs::TraceSpanScope root(ctx, "request");
    root.attr("kind", kind_name(req.kind));
    out = run_request_core(ws, req, deadline_at, ctx);
    root.attr("status", status_name(out.status));
    root.attr("fingerprint", out.stats.batch_key);
    root.attr("cache.hits", out.stats.cache_hits);
    root.attr("cache.misses", out.stats.cache_misses);
    // Front-gate exits (pre-dispatch cancellation, arity failures) skip
    // phases; backfill empty spans so every outcome's tree keeps the full
    // queue / validate / run shape.
    const std::int64_t now = obs::trace_now_us();
    if (!ctx.has_span("validate")) {
      ctx.add_complete_span("validate", now, now, root.id());
    }
    if (!ctx.has_span("run")) {
      ctx.add_complete_span("run", now, now, root.id());
    }
  }
  out.stats.queue_us = dispatched_us - admitted_us;
  out.trace = ctx.snapshot();

  static obs::Histogram& h_latency =
      obs::histogram("svc.request_latency_us");
  h_latency.record(
      static_cast<std::uint64_t>(out.stats.queue_us + out.stats.run_us));
  if (admitted) {
    static obs::Histogram& h_queue = obs::histogram("svc.queue_wait_us");
    h_queue.record(static_cast<std::uint64_t>(out.stats.queue_us));
  }
  return out;
}

AnalysisOutcome run_request(engine::Workspace& ws,
                            const AnalysisRequest& req) {
  std::optional<Clock::time_point> deadline_at;
  if (req.deadline) deadline_at = Clock::now() + *req.deadline;
  return run_request_at(ws, req, deadline_at);
}

AnalysisOutcome run_request(const AnalysisRequest& req) {
  engine::Workspace ws;
  return run_request(ws, req);
}

void AnalysisOutcome::append_to_report(obs::RunReport& report) const {
  report.put("req.id", id);
  report.put("req.kind", std::string(kind_name(kind)));
  report.put("req.status", std::string(status_name(status)));
  if (!error.empty()) report.put("req.error", error);
  if (!diagnostics.clean()) diagnostics.append_to_report(report);

  if (const StructuralResult* s = structural()) {
    put_time(report, "structural.delay", s->delay);
    put_time(report, "structural.busy_window", s->busy_window);
    report.put("structural.meets_vertex_deadlines",
               s->meets_vertex_deadlines);
    report.put("explore.aborted", s->stats.aborted);
  } else if (const FpResult* f = fp()) {
    report.put("fp.overloaded", f->overloaded);
    report.put("fp.tasks", static_cast<std::int64_t>(f->tasks.size()));
    put_time(report, "fp.system_busy_window", f->system_busy_window);
    Time worst(0);
    bool meets = !f->overloaded;
    for (const FpTaskResult& t : f->tasks) {
      worst = max(worst, t.structural_delay);
      meets = meets && t.meets_vertex_deadlines;
    }
    put_time(report, "fp.worst_delay", worst);
    report.put("fp.meets_vertex_deadlines", meets);
  } else if (const EdfResult* e = edf()) {
    report.put("edf.schedulable", e->schedulable);
    report.put("edf.overloaded", e->overloaded);
    if (e->margin) report.put("edf.margin", *e->margin);
    put_time(report, "edf.horizon_checked", e->horizon_checked);
  } else if (const JointFpResult* j = joint_fp()) {
    report.put("joint_fp.overloaded", j->overloaded);
    put_time(report, "joint_fp.joint_delay", j->joint_delay);
    put_time(report, "joint_fp.rbf_delay", j->rbf_delay);
    report.put("joint_fp.paths_enumerated", j->paths_enumerated);
    report.put("joint_fp.paths_analyzed", j->paths_analyzed);
  } else if (const SensitivityReport* sr = sensitivity()) {
    report.put("sensitivity.feasible", sr->feasible);
    report.put("sensitivity.parameters",
               static_cast<std::int64_t>(sr->wcet_slack.size() +
                                         sr->separation_slack.size()));
  } else if (const AudsleyResult* a = audsley()) {
    report.put("audsley.feasible", a->feasible);
    report.put("audsley.tests_run",
               static_cast<std::int64_t>(a->tests_run));
  }

  report.put("svc.queue_us", stats.queue_us);
  report.put("svc.run_us", stats.run_us);
  report.put("svc.batch_key", static_cast<std::int64_t>(stats.batch_key));
  report.put("svc.batch_size", static_cast<std::int64_t>(stats.batch_size));
  report.put("svc.cache_hits", stats.cache_hits);
  report.put("svc.cache_misses", stats.cache_misses);
}

}  // namespace strt::svc
