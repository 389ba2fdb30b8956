// Observability: exportable live telemetry.
//
// A TelemetrySink periodically snapshots the global Registry into files
// under one directory, so a running service can be scraped / tailed
// without stopping it:
//
//   metrics.prom   Prometheus text exposition format (version 0.0.4),
//                  rewritten atomically (tmp + rename) on every flush:
//                  counters as `counter`, gauges as `gauge` (plus a
//                  `<name>_max` high-water gauge), histograms as native
//                  `histogram` metrics with cumulative le-buckets.
//   events.jsonl   append-only event log: one strt.obs.report.v2 line
//                  per flush (counters + histogram summaries + the
//                  flush sequence number), diffable across flushes.
//   trace.json     Chrome Trace Event Format (strt.obs.trace.v1) over
//                  every request trace added so far; loads directly in
//                  chrome://tracing or https://ui.perfetto.dev.
//
// Families are sorted by name, each under one `# TYPE` line; histogram
// buckets carry the `le` label.
//
// The sink is thread-safe: the service worker flushes per round while
// others add traces; whole flushes are serialized internally, so
// concurrent flushers never interleave their file writes.  Flushing with
// observability disabled still writes files (the snapshots are just
// zero); callers normally enable obs when constructing a sink
// (strt_serve --telemetry-dir does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace strt::obs {

/// Prometheus-legal metric name: [a-zA-Z_:][a-zA-Z0-9_:]*; '.' and every
/// other illegal character become '_'.
[[nodiscard]] std::string prometheus_name(std::string_view name);

/// One Registry snapshot as a Prometheus text exposition document.
[[nodiscard]] std::string prometheus_exposition();

class TelemetrySink {
 public:
  /// Writes under `dir` (created if missing; throws std::runtime_error
  /// when creation fails).
  explicit TelemetrySink(std::string dir);
  ~TelemetrySink();  // final flush

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Buffers one finished request trace for trace.json.
  void add_trace(RequestTrace trace);

  /// Snapshots the registry into metrics.prom (atomic rewrite), appends
  /// one event line to events.jsonl, and rewrites trace.json with every
  /// buffered trace.
  void flush();

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t flushes() const;

 private:
  struct Impl;
  std::string dir_;
  Impl* impl_;
};

}  // namespace strt::obs
