// strt::svc -- the sharded batch analysis service.
//
// A Service owns one long-lived engine::Workspace (striped intern/memo
// tables, see engine/workspace.hpp) shared by N worker shards, each
// behind its own bounded lock-free MPMC admission ring
// (svc/mpmc_queue.hpp), and serves AnalysisRequests submitted from any
// thread:
//
//   * Routing: requests are routed by request_fingerprint() -- task set
//     plus supply -- so every request about the same system lands on the
//     shard that owns its memo warmth.  Distinct fingerprints are
//     assigned to shards round-robin in order of first appearance, which
//     balances distinct systems across shards deterministically (a plain
//     fp % shards split would leave shards idle whenever fingerprints
//     collide modulo N).
//   * Admission: each shard's ring holds queue_capacity / shards
//     requests (>= 1).  submit() blocks while the routed shard is full
//     (backpressure); try_submit() sheds load instead, answering
//     kRejected and bumping the svc.shed counter.  The svc.queue_depth
//     gauge is sampled at every admission.
//   * Batching: each shard's dispatch round drains up to max_batch
//     queued requests and groups them by fingerprint in arrival order.
//     The first request of a group runs first and warms every
//     rbf/dbf/sbf/derived-curve memo the group shares; the rest of the
//     group answers mostly from the cache.  With one shard the warm tail
//     fans out across the strt::exec pool; with several shards the tail
//     runs on the shard worker itself -- the shards *are* the
//     parallelism, and nested pool runs would serialize on the pool's
//     run lock.
//   * Deadlines/cancellation: a request whose wall-clock budget expired
//     while queued is answered kDeadlineExpired without running; budgets
//     and CancelTokens of running requests are checked at every explorer
//     progress callback (see svc/api.hpp).
//   * Results are bit-identical to run_request() on a private workspace
//     whatever the shard count: the Workspace cache-on/off, striping,
//     and thread-count contracts guarantee warmth never changes an
//     answer (enforced by tests/test_svc.cpp and bench/bench_service.cpp
//     for shards=1 vs shards=N).
//
// Shutdown: the destructor stops admission, drains every queued request
// on every shard, and joins the shard workers.
//
// Observability: svc.submitted / svc.rejected / svc.shed / svc.batches /
// svc.batched_requests global counters on top of the per-request
// counters run_request() bumps, plus per-shard rollups published with
// Prometheus-style labels -- svc.shard_served{shard="K"},
// svc.shard_batches{shard="K"}, svc.shard_queue_depth{shard="K"} -- that
// the run report captures and obs::TelemetrySink exports as labeled
// series.  stats() returns this service's numbers, including a per-shard
// breakdown.  Every outcome carries its request trace (queue wait
// measured from admission), and svc.request_latency_us /
// svc.queue_wait_us / svc.batch_size latency histograms accumulate in
// the global registry.  Setting ServiceOptions::telemetry_dir attaches
// an obs::TelemetrySink that shard workers flush after every round
// (metrics.prom + events.jsonl + trace.json, see obs/sink.hpp).
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
  /// Bounded admission capacity across all shards; each shard's ring
  /// holds queue_capacity / shards (>= 1) requests.  submit() blocks /
  /// try_submit() rejects when the routed shard is full.  Must be >= 1.
  std::size_t queue_capacity = 1024;
  /// Requests drained per shard dispatch round (the batching window).
  std::size_t max_batch = 64;
  /// Worker shard count.  0 (the default) resolves the environment
  /// variable STRT_SHARDS (falling back to 1).  Each shard is one worker
  /// thread with its own admission ring; requests are routed to shards
  /// by fingerprint, so memo warmth stays shard-local.  Pick roughly one
  /// shard per core serving distinct systems; more shards than distinct
  /// request fingerprints leaves the excess idle.
  std::size_t shards = 0;
  /// Group a round by request_fingerprint() before running.  Off =>
  /// strict arrival order, one batch per request (ablation switch;
  /// results are identical either way).
  bool batch_by_fingerprint = true;
  /// Fan a group's cache-warm tail across the exec pool.  Only effective
  /// with one shard: multi-shard services always run tails on the shard
  /// worker (ablation switch; results are identical either way).
  bool parallel_batches = true;
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
  /// Bytes budget for the workspace's interned-curve storage.  0 (the
  /// default) resolves STRT_CACHE_BUDGET ("64M"-style suffixes allowed),
  /// else unlimited.  See engine::Workspace::set_cache_bytes_budget().
  std::uint64_t cache_bytes_budget = 0;
};

/// The shard count `opts` resolves to: opts.shards when non-zero, else
/// the STRT_SHARDS environment variable (>= 1), else 1 (strt::cfg
/// precedence).
[[nodiscard]] std::size_t resolved_shards(const ServiceOptions& opts);

/// One shard's slice of the service counters (stats().per_shard).
struct ShardStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t deadline_expired = 0;
  std::size_t queue_depth = 0;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // try_submit sheds + shutdown rejections
  std::uint64_t served = 0;
  std::uint64_t deadline_expired = 0;  // expired while queued
  std::uint64_t batches = 0;           // fingerprint groups dispatched
  std::uint64_t batched_requests = 0;  // requests sharing a group of >= 2
  std::size_t queue_depth = 0;         // currently queued, all shards
  /// Per-shard rollup, indexed by shard; the scalar fields above are the
  /// sums over this vector (plus shutdown rejections, which no shard
  /// owns).
  std::vector<ShardStats> per_shard;
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submits one request; blocks while the routed shard's admission ring
  /// is full (backpressure).  The future resolves when the request is
  /// served.
  [[nodiscard]] std::future<AnalysisOutcome> submit(AnalysisRequest req);

  /// Non-blocking admission: nullopt when the routed shard is full (the
  /// caller sheds load; svc.rejected and svc.shed are bumped).
  [[nodiscard]] std::optional<std::future<AnalysisOutcome>> try_submit(
      AnalysisRequest req);

  /// Convenience: submits every request (blocking admission) and waits;
  /// outcomes are returned in request order.
  [[nodiscard]] std::vector<AnalysisOutcome> run_all(
      std::vector<AnalysisRequest> reqs);

  /// Pauses/resumes dispatch on every shard (admission stays open).
  /// While paused the rings fill up and submit() exerts backpressure.
  void pause();
  void resume();

  /// Blocks until every shard's ring is empty and no request is in
  /// flight.  Resumes a paused service first (a paused drain would
  /// deadlock).
  void drain();

  /// The shared workspace (its stats() are the service-wide cache
  /// numbers; also handy for seeding warmth in benchmarks).
  [[nodiscard]] engine::Workspace& workspace();

  /// The resolved shard count (>= 1).
  [[nodiscard]] std::size_t shard_count() const;

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace strt::svc
