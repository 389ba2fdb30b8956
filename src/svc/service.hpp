// strt::svc -- the batch analysis service.
//
// A Service owns one long-lived engine::Workspace (every memo family is
// one StripedMemo, see engine/workspace.hpp) and one worker thread behind
// one bounded admission queue, and serves AnalysisRequests submitted
// from any thread.  The workspace keeps every memo entry for the
// service's lifetime; with a snapshot path set it starts warm from disk
// and saves its warmth back on drain() and at shutdown.
//
//   * Admission: the queue holds queue_capacity requests.  submit()
//     blocks while it is full (backpressure); try_submit() sheds load
//     instead, answering kRejected and bumping the svc.shed counter.  The
//     svc.queue_depth gauge is sampled at every admission.
//   * Batching: each dispatch round takes up to max_batch queued
//     requests and groups them by request_fingerprint() -- task set plus
//     supply -- in arrival order.  The first request of a group runs
//     first and warms every rbf/dbf/sbf/derived-curve memo the group
//     shares; the rest of the group then runs serially on the worker and
//     answers mostly from the cache.
//   * Deadlines/cancellation: a request whose wall-clock budget expired
//     while queued is answered kDeadlineExpired without running; budgets
//     and CancelTokens of running requests are checked at every explorer
//     progress callback (see svc/api.hpp).
//   * Results are bit-identical to run_request() on a private workspace:
//     the Workspace cache-on/off, striping, and thread-count contracts
//     guarantee warmth never changes an answer (enforced by
//     tests/test_svc.cpp and bench/bench_service.cpp).
//
// Concurrency: one strt::Mutex guards the queue, the paused and stopping
// flags, and the in-flight count; the worker, blocked submitters, and
// drain() wait on three condition variables under it (work, space,
// idle).  Shutdown: the destructor stops admission, answers submitters
// blocked for space with kRejected and waits until each has left the
// service, lets the worker serve every queued request, and joins it.
//
// Observability: svc.submitted / svc.rejected / svc.shed / svc.batches /
// svc.batched_requests global counters on top of the per-request
// counters run_request() bumps; stats() returns this service's numbers.
// Every outcome carries its request trace (queue wait measured from
// admission), and svc.request_latency_us / svc.queue_wait_us /
// svc.batch_size latency histograms accumulate in the global registry.
// Setting ServiceOptions::telemetry_dir attaches an obs::TelemetrySink
// that the worker flushes after every round (metrics.prom +
// events.jsonl + trace.json, see obs/sink.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "svc/api.hpp"

namespace strt::engine {
class Workspace;
}  // namespace strt::engine

namespace strt::svc {

struct ServiceOptions {
  /// Bounded admission capacity.  submit() blocks / try_submit()
  /// rejects when the queue is full.  0 is raised to 1.
  std::size_t queue_capacity = 1024;
  /// Requests taken per dispatch round (the batching window).
  std::size_t max_batch = 64;
  /// Group a round by request_fingerprint() before running.  Off =>
  /// strict arrival order, one batch per request (ablation switch;
  /// results are identical either way).
  bool batch_by_fingerprint = true;
  /// Workspace memoization (the warm-cache amortization this service
  /// exists for; off is the cold ablation).
  bool caching = true;
  /// Construct paused: requests queue up (backpressure observable
  /// deterministically) until resume().
  bool start_paused = false;
  /// When non-empty, live telemetry is exported under this directory
  /// (created if missing; the constructor throws std::runtime_error when
  /// that fails): metrics.prom, events.jsonl, and trace.json, flushed
  /// after every dispatch round and once more at shutdown.  Telemetry
  /// never affects analysis results (bit-identity contract).
  std::string telemetry_dir;
  /// Persistent warm-start cache (strt.engine.snapshot.v2).  Empty (the
  /// default) resolves the STRT_SNAPSHOT environment variable; when the
  /// resolved path is non-empty the constructor loads it into the
  /// shared workspace (a missing or rejected file cold-starts clean)
  /// and the service saves back to it crash-safe (tmp+rename) on every
  /// drain() and at shutdown.  Results are bit-identical with the
  /// snapshot on, off, or rejected (Workspace contract).
  std::string snapshot_path;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // try_submit sheds + shutdown rejections
  std::uint64_t served = 0;
  std::uint64_t deadline_expired = 0;  // expired while queued
  std::uint64_t batches = 0;           // fingerprint groups dispatched
  std::uint64_t batched_requests = 0;  // requests sharing a group of >= 2
  std::size_t queue_depth = 0;         // currently queued
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one request; blocks while the admission queue is full
  /// (backpressure).  The future resolves when the request is
  /// served.
  [[nodiscard]] std::future<AnalysisOutcome> submit(AnalysisRequest req);

  /// Non-blocking admission: nullopt when the queue is full (the caller
  /// sheds load; svc.rejected and svc.shed are bumped).
  [[nodiscard]] std::optional<std::future<AnalysisOutcome>> try_submit(
      AnalysisRequest req);

  /// Convenience: submits every request (blocking admission) and waits;
  /// outcomes are returned in request order.
  [[nodiscard]] std::vector<AnalysisOutcome> run_all(
      std::vector<AnalysisRequest> reqs);

  /// Pauses/resumes dispatch (admission stays open).  While paused the
  /// queue fills up and submit() exerts backpressure.
  void pause();
  void resume();

  /// Blocks until the queue is empty and no request is in flight.
  /// Resumes a paused service first (a paused drain would deadlock).
  void drain();

  /// The shared workspace (its stats() are the service-wide cache
  /// numbers; also handy for seeding warmth in benchmarks).
  [[nodiscard]] engine::Workspace& workspace();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace strt::svc
