#include "check/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/report.hpp"

namespace strt::check {

std::string_view severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::to_json() const {
  std::ostringstream os;
  os << "{\"code\":\"" << obs::json_escape(code) << "\",\"severity\":\""
     << severity_name(severity) << "\",\"location\":\""
     << obs::json_escape(location) << "\",\"message\":\""
     << obs::json_escape(message) << "\"}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Diagnostic& d) {
  os << severity_name(d.severity) << '[' << d.code << ']';
  if (!d.location.empty()) os << ' ' << d.location;
  return os << ": " << d.message;
}

void CheckResult::add(Severity severity, std::string code,
                      std::string location, std::string message) {
  if (severity == Severity::kError) ++error_count_;
  diagnostics_.push_back(Diagnostic{std::move(code), severity,
                                    std::move(location), std::move(message)});
}

void CheckResult::merge(CheckResult other) {
  error_count_ += other.error_count_;
  diagnostics_.insert(diagnostics_.end(),
                      std::make_move_iterator(other.diagnostics_.begin()),
                      std::make_move_iterator(other.diagnostics_.end()));
}

bool CheckResult::has(std::string_view code) const {
  return count(code) > 0;
}

std::size_t CheckResult::count(std::string_view code) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

void CheckResult::print(std::ostream& os) const {
  for (const Diagnostic& d : diagnostics_) os << d << '\n';
}

std::string CheckResult::to_json() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    if (i) os << ',';
    os << diagnostics_[i].to_json();
  }
  os << ']';
  return os.str();
}

void CheckResult::append_to_report(obs::RunReport& report) const {
  report.put("check.diagnostics",
             static_cast<std::int64_t>(diagnostics_.size()));
  report.put("check.errors", static_cast<std::int64_t>(error_count()));
  report.put("check.warnings", static_cast<std::int64_t>(warning_count()));
  report.put("check.report", to_json());
}

std::span<const CodeInfo> all_codes() {
  // Keep sorted by code; tests/test_check.cpp asserts every entry has a
  // seeded defective model that triggers exactly it.
  static constexpr CodeInfo kCodes[] = {
      {"curve.negative", Severity::kError,
       "curve sample has a negative time or value"},
      {"curve.non-monotone", Severity::kError,
       "curve samples decrease over time"},
      {"curve.nonzero-origin", Severity::kWarning,
       "arrival/supply curve is positive at t = 0"},
      {"curve.too-large", Severity::kError,
       "a curve on the busy window would pass the builders' step cap"},
      {"curve.unbounded-inverse", Severity::kError,
       "supply curve pseudo-inverse leaves its domain (no growing tail)"},
      {"drt.acyclic", Severity::kWarning,
       "task graph has no cycle (finitely many releases)"},
      {"drt.dangling-edge", Severity::kError,
       "edge endpoint is not a declared vertex"},
      {"drt.dead-end", Severity::kWarning,
       "vertex has no outgoing edge (a run entering it stops)"},
      {"drt.duplicate-vertex", Severity::kError,
       "two vertices share one name"},
      {"drt.empty", Severity::kError, "task has no vertices"},
      {"drt.nonpositive-deadline", Severity::kError,
       "vertex deadline is not positive"},
      {"drt.nonpositive-separation", Severity::kError,
       "edge separation is not positive"},
      {"drt.nonpositive-wcet", Severity::kError,
       "vertex wcet is not positive"},
      {"drt.not-frame-separated", Severity::kWarning,
       "a deadline exceeds an outgoing separation (exact dbf unavailable)"},
      {"drt.overflow", Severity::kError,
       "long-run utilization leaves int64 arithmetic"},
      {"drt.overutilized", Severity::kError,
       "long-run utilization is at least 1"},
      {"drt.transient", Severity::kWarning,
       "vertex lies on no cycle (contributes only finitely)"},
      {"drt.wcet-exceeds-deadline", Severity::kError,
       "vertex can never meet its deadline (wcet > deadline)"},
      {"gmf.deadline-exceeds-separation", Severity::kWarning,
       "frame deadline exceeds its separation (frame separation lost)"},
      {"gmf.overutilized", Severity::kError,
       "frame wcet sum reaches the separation sum"},
      {"gmf.wcet-exceeds-deadline", Severity::kError,
       "frame can never meet its deadline (wcet > deadline)"},
      {"parse.duplicate-vertex", Severity::kError,
       "vertex name declared twice"},
      {"parse.invalid-value", Severity::kError,
       "field value is not a valid number"},
      {"parse.missing-field", Severity::kError,
       "required field is absent"},
      {"parse.no-task", Severity::kError,
       "no 'task' directive in the input"},
      {"parse.syntax", Severity::kError,
       "malformed directive"},
      {"parse.unknown-vertex", Severity::kError,
       "edge endpoint names an undeclared vertex"},
      {"recurring.inconsistent-period", Severity::kWarning,
       "branches imply different root-to-root periods"},
      {"recurring.missing-restart", Severity::kError,
       "a leaf never restarts at the root"},
      {"req.bad-field", Severity::kError,
       "request field has the wrong type or an invalid value"},
      {"req.missing-task", Severity::kError,
       "request carries no task description"},
      {"req.unknown-kind", Severity::kError,
       "request names an unknown analysis kind"},
      {"set.duplicate-task", Severity::kWarning,
       "two tasks share one structural fingerprint"},
      {"set.overutilized", Severity::kError,
       "task-set utilization sum is at least 1"},
      {"sporadic.overutilized", Severity::kError,
       "sporadic wcet exceeds its period"},
      {"sporadic.wcet-exceeds-deadline", Severity::kError,
       "sporadic job can never meet its deadline"},
      {"supply.near-overload", Severity::kError,
       "busy window exceeds the horizon guard (utilization within a hair "
       "of the supply rate)"},
      {"supply.overload", Severity::kError,
       "utilization sum reaches the supply's long-run rate"},
  };
  return kCodes;
}

}  // namespace strt::check
