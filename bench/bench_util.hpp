// Shared helpers for the experiment harnesses (bench_*).
//
// Timing goes through obs::Span (phases show up in the run report's span
// tree) with wall-clock readback for table printing.  Each harness opens
// a BenchReport at the top of main and feeds it its headline metrics;
// on destruction the report -- counters, spans, metrics -- is appended
// to BENCH_<name>.json (strt.obs.report.v2 schema, one line per run)
// whenever observability is enabled (STRT_OBS=1) or STRT_BENCH_JSON
// names an output directory.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <type_traits>

#include "base/config.hpp"
#include "base/rng.hpp"
#include "base/types.hpp"
#include "check/check.hpp"
#include "exec/exec.hpp"
#include "graph/drt.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"

namespace strt::bench {

/// Runs `n` independent trials as an exec parallel loop and returns the
/// results in trial order.  Trial i draws from Rng::split(seed, i), so the
/// trial sequence -- generated task sets included -- is identical whether
/// the sweep runs serially (STRT_THREADS=1) or across every core.  fn takes
/// (Rng&, trial_index) and returns the trial's result; rejection loops
/// (regenerate until the instance fits the supply) belong inside fn,
/// where they stay deterministic per index.
template <class Fn>
[[nodiscard]] auto trials(std::uint64_t seed, std::size_t n, Fn&& fn) {
  return exec::parallel_map(n, [&](std::size_t i) {
    Rng rng = Rng::split(seed, i);
    return fn(rng, i);
  });
}

/// Front-gates generated instances through the strt::check lint once per
/// harness run: a generator bug (malformed structure, utilization at or
/// above 1) aborts the experiment instead of producing garbage tables,
/// and the check.* counters the passes bump are captured into the
/// harness's BENCH_<name>.json report.
inline void lint_generated(std::span<const DrtTask> tasks) {
  check::CheckResult r;
  for (const DrtTask& t : tasks) r.merge(check::check_task(t));
  r.merge(check::check_task_set(tasks));
  if (!r.ok()) {
    std::cerr << "bench: generated task set failed strt::check:\n";
    r.print(std::cerr);
    std::exit(1);
  }
}

inline std::string show(Time t) {
  return t.is_unbounded() ? "inf" : std::to_string(t.count());
}

inline std::string show(Work w) {
  return w.is_unbounded() ? "inf" : std::to_string(w.count());
}

/// Ratio of two delay bounds as a printable factor ("1.27x", "inf").
inline std::string factor(Time num, Time den) {
  if (num.is_unbounded()) return "inf";
  // An unbounded denominator is a sentinel (max int64), not a number;
  // dividing by its raw count would print a misleading finite factor.
  if (den.is_unbounded()) return "-";
  if (den == Time(0)) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx",
                static_cast<double>(num.count()) /
                    static_cast<double>(den.count()));
  return buf;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A timed benchmark phase: an obs::Span (so the phase lands in the span
/// tree of the emitted report) plus a wall clock the harness can read for
/// its tables.  Declaration order matters for RAII: the span closes when
/// the Phase goes out of scope.
class Phase {
 public:
  explicit Phase(std::string_view name) : span_(name) {}
  [[nodiscard]] double seconds() const { return sw_.seconds(); }
  [[nodiscard]] double millis() const { return sw_.millis(); }

 private:
  obs::Span span_;
  Stopwatch sw_;
};

/// Per-binary structured report sink.  Construct once at the top of main;
/// record headline metrics with metric(); the destructor captures the
/// observability state and appends one JSON line to BENCH_<name>.json.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : report_(name), name_(std::move(name)) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void metric(std::string_view key, std::string value) {
    report_.put(key, std::move(value));
  }
  void metric(std::string_view key, const char* value) {
    report_.put(key, value);
  }
  void metric(std::string_view key, double value) { report_.put(key, value); }
  void metric(std::string_view key, bool value) { report_.put(key, value); }
  template <class V>
    requires std::is_integral_v<V>
  void metric(std::string_view key, V value) {
    report_.put(key, static_cast<std::int64_t>(value));
  }
  void metric(std::string_view key, Time value) {
    report_.put(key, show(value));
  }
  void metric(std::string_view key, Work value) {
    report_.put(key, show(value));
  }
  /// Records a pre-serialized JSON value (array / object) emitted
  /// verbatim -- for structured results like a scaling curve.  `raw`
  /// must be complete, well-formed JSON.
  void metric_json(std::string_view key, std::string raw) {
    report_.put_json(key, std::move(raw));
  }

  ~BenchReport() {
    const std::string dir = cfg::get_string("STRT_BENCH_JSON", "");
    if (!obs::enabled() && dir.empty()) return;
    report_.capture();
    std::string path = "BENCH_" + name_ + ".json";
    if (!dir.empty()) path = dir + "/" + path;
    std::ofstream out(path, std::ios::app);
    if (!out) {
      std::cerr << "bench: cannot open '" << path << "' for the report\n";
      return;
    }
    report_.write_json_line(out);
    std::cerr << "bench: report appended to " << path << '\n';
  }

 private:
  obs::RunReport report_;
  std::string name_;
};

}  // namespace strt::bench
