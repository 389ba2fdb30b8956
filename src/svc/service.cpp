#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "base/assert.hpp"
#include "base/config.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "engine/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "race/hook.hpp"

namespace strt::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// One admitted request awaiting dispatch.
struct Pending {
  AnalysisRequest req;
  std::promise<AnalysisOutcome> promise;
  Clock::time_point admitted;
  std::optional<Clock::time_point> deadline_at;
  std::uint64_t fp = 0;
};

}  // namespace

// Race hooks: after construction, every critical section announces each
// mutex-guarded field it touches as a relaxed access (STRT_RACE_ATOMIC
// ... kRelaxed), so under the interleaving explorer only the mutex's own
// hand-off edges can order them -- an access that escaped the lock would
// surface as a race.

struct Service::Impl {
  explicit Impl(ServiceOptions o) : opts(std::move(o)), ws(opts.caching) {
    if (opts.queue_capacity == 0) opts.queue_capacity = 1;
    if (opts.max_batch == 0) opts.max_batch = 1;
    paused = opts.start_paused;
    // Warm-start wiring: resolve the snapshot path (flag > STRT_SNAPSHOT
    // env > off), then replay the snapshot into the shared workspace.
    // Rejection is clean: the service cold-starts and overwrites the bad
    // file at the next save.
    snapshot_path = cfg::get_string(
        "STRT_SNAPSHOT", "",
        opts.snapshot_path.empty()
            ? std::nullopt
            : std::optional<std::string_view>(opts.snapshot_path));
    opts.snapshot_path = snapshot_path;  // echo into options()
    if (!snapshot_path.empty()) (void)ws.load_snapshot(snapshot_path);
    if (!opts.telemetry_dir.empty()) {
      sink = std::make_unique<obs::TelemetrySink>(opts.telemetry_dir);
    }
  }

  ServiceOptions opts;
  engine::Workspace ws;
  /// Resolved warm-start cache path; empty = persistence off.  Saves
  /// are serialized by save_mu (drain() and the destructor may race).
  std::string snapshot_path;
  Mutex save_mu;
  /// Live telemetry export; null when telemetry_dir is empty.  The
  /// worker flushes after every round.
  std::unique_ptr<obs::TelemetrySink> sink;

  /// Persists the workspace's memo warmth to snapshot_path (crash-safe
  /// tmp+rename; failures are non-fatal -- the service keeps serving).
  void save_snapshot_if_configured() {
    if (snapshot_path.empty()) return;
    const MutexLock lock(save_mu);
    (void)ws.save_snapshot(snapshot_path);
  }

  Mutex mu;
  CondVar cv_work;   // worker: queued work, resume, or stop
  CondVar cv_space;  // blocked submitters: the queue has room, or stop
  CondVar cv_idle;   // drain(): queue empty, nothing in flight;
                     // ~Service: no submitter left in the space wait
  std::deque<Pending> queue STRT_GUARDED_BY(mu);
  /// Requests the worker took off the queue and has not answered yet.
  std::size_t in_flight STRT_GUARDED_BY(mu) = 0;
  bool paused STRT_GUARDED_BY(mu) = false;
  bool stopping STRT_GUARDED_BY(mu) = false;
  /// Submitters parked on cv_space.  Each must take `mu` again before it
  /// sees `stopping`, so the destructor waits for this to reach 0.
  std::size_t blocked_submitters STRT_GUARDED_BY(mu) = 0;
  std::uint64_t submitted STRT_GUARDED_BY(mu) = 0;
  std::uint64_t rejected STRT_GUARDED_BY(mu) = 0;
  std::uint64_t served STRT_GUARDED_BY(mu) = 0;

  // Bumped per fingerprint group while the round runs unlocked.
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  std::atomic<std::uint64_t> deadline_expired{0};

  std::thread worker;  // started by Service's constructor, joined last

  void worker_loop();
  void process(std::vector<Pending> round);

  /// Admission under the capacity bound; nullopt when `block` is false
  /// and the queue is full.  Once stopping, answers kRejected through
  /// the returned future.
  std::optional<std::future<AnalysisOutcome>> admit(AnalysisRequest req,
                                                    bool block);
};

std::optional<std::future<AnalysisOutcome>> Service::Impl::admit(
    AnalysisRequest req, bool block) {
  static obs::Counter& c_submitted = obs::counter("svc.submitted");
  static obs::Counter& c_rejected = obs::counter("svc.rejected");
  static obs::Counter& c_shed = obs::counter("svc.shed");
  static obs::Gauge& g_depth = obs::gauge("svc.queue_depth");

  Pending p;
  p.admitted = Clock::now();
  if (req.deadline) p.deadline_at = p.admitted + *req.deadline;
  p.fp = request_fingerprint(req);
  p.req = std::move(req);
  std::future<AnalysisOutcome> fut = p.promise.get_future();

  // Nothing below the critical section touches *this, and the
  // destructor outwaits every submitter parked for space: a caller racing
  // the destructor only has to have taken `mu` before it.
  bool admitted = false;
  std::size_t depth = 0;
  {
    MutexLock l(mu);
    for (;;) {
      STRT_RACE_ATOMIC("svc.admit.stopping", &stopping, kLoad, kRelaxed);
      STRT_RACE_ATOMIC("svc.admit.depth", &queue, kLoad, kRelaxed);
      if (stopping || queue.size() < opts.queue_capacity) break;
      if (!block) {
        // Full, non-blocking: the caller sheds load.
        STRT_RACE_ATOMIC("svc.admit.shed", &rejected, kStore, kRelaxed);
        ++rejected;
        c_rejected.add(1);
        c_shed.add(1);
        return std::nullopt;
      }
      STRT_RACE_ATOMIC("svc.admit.park", &blocked_submitters, kStore,
                       kRelaxed);
      ++blocked_submitters;
      l.wait(cv_space);
      STRT_RACE_ATOMIC("svc.admit.unpark", &blocked_submitters, kStore,
                       kRelaxed);
      if (--blocked_submitters == 0) cv_idle.notify_all();
    }
    if (stopping) {
      STRT_RACE_ATOMIC("svc.admit.reject", &rejected, kStore, kRelaxed);
      ++rejected;
    } else {
      STRT_RACE_ATOMIC("svc.admit.push", &queue, kStore, kRelaxed);
      queue.push_back(std::move(p));
      STRT_RACE_ATOMIC("svc.admit.count", &submitted, kStore, kRelaxed);
      ++submitted;
      depth = queue.size();
      admitted = true;
      cv_work.notify_one();
    }
  }
  if (!admitted) {
    // Answer through the future so submit() stays total.
    c_rejected.add(1);
    AnalysisOutcome out;
    out.id = p.req.id;
    out.kind = p.req.kind;
    out.status = OutcomeStatus::kRejected;
    out.error = "service is shutting down";
    p.promise.set_value(std::move(out));
    return fut;
  }
  c_submitted.add(1);
  // Backpressure visibility: sample the admission-time depth so
  // metrics.prom carries a live queue level plus its high-water mark.
  if (obs::enabled()) g_depth.set(static_cast<std::int64_t>(depth));
  return fut;
}

void Service::Impl::worker_loop() {
  for (;;) {
    std::vector<Pending> round;
    {
      STRT_RACE_HOOK("svc.worker.wait");
      MutexLock l(mu);
      for (;;) {
        STRT_RACE_ATOMIC("svc.worker.stopping", &stopping, kLoad, kRelaxed);
        STRT_RACE_ATOMIC("svc.worker.paused", &paused, kLoad, kRelaxed);
        STRT_RACE_ATOMIC("svc.worker.depth", &queue, kLoad, kRelaxed);
        if (stopping || (!paused && !queue.empty())) break;
        l.wait(cv_work);
      }
      STRT_RACE_ATOMIC("svc.worker.pop", &queue, kStore, kRelaxed);
      if (queue.empty()) return;  // stopping, and every request answered
      const std::size_t n = std::min(queue.size(), opts.max_batch);
      round.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        round.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      STRT_RACE_ATOMIC("svc.worker.claim", &in_flight, kStore, kRelaxed);
      in_flight = n;
      // Counters go up before the promises are fulfilled: a caller that
      // observes its future resolved also observes the round in stats().
      STRT_RACE_ATOMIC("svc.worker.served", &served, kStore, kRelaxed);
      served += n;
      cv_space.notify_all();
    }

    // The round now runs unlocked; drain() must still see it in flight.
    STRT_RACE_HOOK("svc.worker.run");
    process(std::move(round));

    STRT_RACE_HOOK("svc.worker.done");
    const MutexLock l(mu);
    STRT_RACE_ATOMIC("svc.worker.release", &in_flight, kStore, kRelaxed);
    in_flight = 0;
    STRT_RACE_ATOMIC("svc.worker.idle", &queue, kLoad, kRelaxed);
    if (queue.empty()) cv_idle.notify_all();
  }
}

void Service::Impl::process(std::vector<Pending> round) {
  static obs::Counter& c_batches = obs::counter("svc.batches");
  static obs::Counter& c_batched = obs::counter("svc.batched_requests");
  const obs::Span span("svc.dispatch");

  // Group the round by fingerprint, preserving arrival order of groups
  // and of members within a group.
  std::vector<std::vector<std::size_t>> groups;
  if (opts.batch_by_fingerprint) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      bool placed = false;
      for (std::vector<std::size_t>& g : groups) {
        if (round[g.front()].fp == round[i].fp) {
          g.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({i});
    }
  } else {
    for (std::size_t i = 0; i < round.size(); ++i) groups.push_back({i});
  }

  static obs::Histogram& h_batch = obs::histogram("svc.batch_size");

  for (const std::vector<std::size_t>& group : groups) {
    c_batches.add(1);
    batches.fetch_add(1, std::memory_order_relaxed);
    h_batch.record(group.size());
    if (group.size() >= 2) {
      c_batched.add(group.size());
      batched_requests.fetch_add(group.size(), std::memory_order_relaxed);
    }
    const engine::WorkspaceStats before = ws.stats();

    const auto serve = [&](std::size_t idx, bool leader) {
      Pending& p = round[idx];
      AnalysisOutcome out =
          run_request_at(ws, p.req, p.deadline_at, p.admitted);
      out.stats.batch_size = group.size();
      // The leader's run doubles as the group's memo-warm phase: it
      // populates every shared rbf/dbf/sbf memo before the tail runs.
      // Mark it in the trace so batching is visible per request.
      if (leader && group.size() > 1) {
        if (const obs::TraceSpanRecord* run = out.trace.find("run")) {
          obs::TraceSpanRecord warm;
          warm.id = out.trace.spans.size() + 1;  // ids are 1..n per trace
          warm.parent = run->id;
          warm.name = "memo.warm";
          warm.start_us = run->start_us;
          warm.dur_us = run->dur_us;
          warm.attrs = {{"role", "leader"},
                        {"batch.size", std::to_string(group.size())}};
          out.trace.spans.push_back(std::move(warm));
          out.trace.sort_spans();
        }
      }
      return out;
    };

    // The group leader runs first and warms every memo the group shares;
    // the tail then answers mostly from the cache.  Results do not depend
    // on warmth (Workspace contract).
    std::vector<AnalysisOutcome> outs;
    outs.reserve(group.size());
    outs.push_back(serve(group[0], /*leader=*/true));
    for (std::size_t i = 1; i < group.size(); ++i) {
      outs.push_back(serve(group[i], /*leader=*/false));
    }

    // Attribute the batch's cache delta to every member, then fulfill.
    const engine::WorkspaceStats after = ws.stats();
    const std::uint64_t hits = (after.hits + after.inverse_hits) -
                               (before.hits + before.inverse_hits);
    const std::uint64_t misses = (after.misses + after.inverse_misses) -
                                 (before.misses + before.inverse_misses);
    std::uint64_t expired = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      outs[i].stats.cache_hits = hits;
      outs[i].stats.cache_misses = misses;
      if (outs[i].status == OutcomeStatus::kDeadlineExpired) ++expired;
    }
    // Like `served`, counters settle before any promise in the group
    // resolves so callers never read stale stats after a get().
    deadline_expired.fetch_add(expired, std::memory_order_relaxed);
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (sink) sink->add_trace(outs[i].trace);
      round[group[i]].promise.set_value(std::move(outs[i]));
    }
  }
  if (sink) sink->flush();
}

Service::Service(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {
  impl_->worker = std::thread([this] {
    // First statement on the new thread: register with an active race
    // explorer under a stable identity (no hooks may precede this).
    STRT_RACE_THREAD("svc.worker", 0);
    impl_->worker_loop();
  });
  // Pair the spawn with an await before any further hook so thread
  // registration order is a pure function of the schedule.
  STRT_RACE_AWAIT_THREAD("svc.worker", 0);
}

Service::~Service() {
  {
    // Blocked submitters wake to `stopping` and answer kRejected; the
    // worker serves what is queued (a paused shutdown still drains) and
    // exits once the queue is empty.
    MutexLock l(impl_->mu);
    STRT_RACE_ATOMIC("svc.stop.store", &impl_->stopping, kStore, kRelaxed);
    impl_->stopping = true;
    STRT_RACE_ATOMIC("svc.stop.unpause", &impl_->paused, kStore, kRelaxed);
    impl_->paused = false;
    impl_->cv_space.notify_all();
    impl_->cv_work.notify_all();
    // A woken submitter still has to take `mu` back; Impl must outlive
    // that, whether or not the worker has exited by then.
    for (;;) {
      STRT_RACE_ATOMIC("svc.stop.parked", &impl_->blocked_submitters, kLoad,
                       kRelaxed);
      if (impl_->blocked_submitters == 0) break;
      l.wait(impl_->cv_idle);
    }
  }
  STRT_RACE_JOIN(impl_->worker);
  impl_->worker.join();
  // Every queued request is answered: write the final warm-start
  // snapshot.
  impl_->save_snapshot_if_configured();
}

std::future<AnalysisOutcome> Service::submit(AnalysisRequest req) {
  std::optional<std::future<AnalysisOutcome>> fut =
      impl_->admit(std::move(req), /*block=*/true);
  STRT_ASSERT(fut.has_value(), "blocking admission always yields a future");
  return std::move(*fut);
}

std::optional<std::future<AnalysisOutcome>> Service::try_submit(
    AnalysisRequest req) {
  return impl_->admit(std::move(req), /*block=*/false);
}

std::vector<AnalysisOutcome> Service::run_all(
    std::vector<AnalysisRequest> reqs) {
  // A paused service could never admit a batch larger than the queue;
  // resume first in that case, otherwise keep any pause while enqueueing
  // so the whole batch lands in one round.
  if (reqs.size() > impl_->opts.queue_capacity) resume();
  std::vector<std::future<AnalysisOutcome>> futs;
  futs.reserve(reqs.size());
  for (AnalysisRequest& r : reqs) futs.push_back(submit(std::move(r)));
  resume();
  std::vector<AnalysisOutcome> outs;
  outs.reserve(futs.size());
  for (std::future<AnalysisOutcome>& f : futs) outs.push_back(f.get());
  return outs;
}

void Service::pause() {
  const MutexLock l(impl_->mu);
  STRT_RACE_ATOMIC("svc.pause", &impl_->paused, kStore, kRelaxed);
  impl_->paused = true;
}

void Service::resume() {
  const MutexLock l(impl_->mu);
  STRT_RACE_ATOMIC("svc.resume", &impl_->paused, kStore, kRelaxed);
  impl_->paused = false;
  impl_->cv_work.notify_one();
}

void Service::drain() {
  resume();  // a paused drain would never finish
  {
    STRT_RACE_HOOK("svc.drain.wait");
    MutexLock l(impl_->mu);
    for (;;) {
      STRT_RACE_ATOMIC("svc.drain.probe", &impl_->in_flight, kLoad,
                       kRelaxed);
      STRT_RACE_ATOMIC("svc.drain.depth", &impl_->queue, kLoad, kRelaxed);
      if (impl_->queue.empty() && impl_->in_flight == 0) break;
      l.wait(impl_->cv_idle);
    }
  }
  // Quiesced: persist the accumulated memo warmth (periodic save point;
  // the destructor saves once more at shutdown).
  impl_->save_snapshot_if_configured();
}

engine::Workspace& Service::workspace() { return impl_->ws; }

ServiceStats Service::stats() const {
  ServiceStats out;
  {
    const MutexLock l(impl_->mu);
    STRT_RACE_ATOMIC("svc.stats.submitted", &impl_->submitted, kLoad,
                     kRelaxed);
    out.submitted = impl_->submitted;
    STRT_RACE_ATOMIC("svc.stats.rejected", &impl_->rejected, kLoad,
                     kRelaxed);
    out.rejected = impl_->rejected;
    STRT_RACE_ATOMIC("svc.stats.served", &impl_->served, kLoad, kRelaxed);
    out.served = impl_->served;
    STRT_RACE_ATOMIC("svc.stats.depth", &impl_->queue, kLoad, kRelaxed);
    out.queue_depth = impl_->queue.size();
  }
  out.deadline_expired =
      impl_->deadline_expired.load(std::memory_order_relaxed);
  out.batches = impl_->batches.load(std::memory_order_relaxed);
  out.batched_requests =
      impl_->batched_requests.load(std::memory_order_relaxed);
  return out;
}

const ServiceOptions& Service::options() const { return impl_->opts; }

}  // namespace strt::svc
