// Experiment E12: batch service amortization.
//
// A request mix over a corpus of random task systems -- an interactive
// mix (structural probes, FP/EDF schedulability checks, sensitivity,
// Audsley assignment) repeated per system, plus one joint-FP deep dive
// per system -- is answered two ways: the cold
// per-request baseline (svc::run_request on a fresh private workspace,
// serially, the way a one-shot CLI would) and the warm batch service
// (one long-lived shared workspace, fingerprint batching).  The bench
// checks the two outcome streams are bit-identical before reporting any
// timing, then reports the throughput of each path and their ratio.
//
// Expected shape: the service amortizes every rbf/dbf/sbf/derived-curve
// memo across the requests that share a task system, so its throughput
// is a multiple of the baseline's (>= 2x is the regression bar, enforced
// through the exit code; the ratio grows with requests-per-system).  The
// `warm no-batch` ablation row isolates how much of the win is cache
// warmth alone.  Each of the three configurations runs kRepetitions
// times, interleaved (cold, warm, no-batch, cold, ...) so drift on the
// host hits all three alike, and reports its median wall time; the bar
// compares the medians.
//
// Per-request latency is reported as service time (OutcomeStats::run_us,
// validate + analysis) kept apart from queue wait (queue_us): the warm
// path enqueues the whole corpus before dispatch, so its queue wait
// measures the corpus length, not the service.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "engine/workspace.hpp"
#include "io/table.hpp"
#include "model/generator.hpp"
#include "obs/counters.hpp"
#include "svc/api.hpp"
#include "svc/service.hpp"

using namespace strt;
using namespace strt::bench;

namespace {

constexpr int kSystems = 8;
constexpr int kRoundsPerSystem = 16;
constexpr int kRepetitions = 5;

std::vector<DrtTask> random_system(std::uint64_t seed) {
  Rng rng = Rng::split(seed, 0);
  DrtGenParams params;
  params.min_vertices = 3;
  params.max_vertices = 6;
  params.min_separation = Time(6);
  params.max_separation = Time(24);
  auto gen = random_drt_set(rng, 3, 0.62, params);
  std::vector<DrtTask> tasks;
  for (auto& g : gen) tasks.push_back(std::move(g.task));
  return tasks;
}

/// True when the system passes the whole strt::check lint: each task,
/// the task set, and the task-versus-supply pass (an overloaded system
/// would be answered kInvalid by the validate gate and timed as a
/// rejection, not an analysis).
bool lint_clean(const std::vector<DrtTask>& tasks, const Supply& supply) {
  check::CheckResult r;
  for (const DrtTask& t : tasks) r.merge(check::check_task(t));
  r.merge(check::check_task_set(tasks));
  r.merge(check::check_system(tasks, supply));
  return r.ok();
}

/// The interactive request mix for one task system and one round; the
/// first round of a system additionally gets the joint-FP deep dive
/// (path-level analyses dominate its cost and are not memo-bound, so a
/// service sees them rarely relative to schedulability polling).
void push_round(std::vector<svc::AnalysisRequest>& out,
                const std::vector<DrtTask>& tasks, const Supply& supply,
                bool deep_dive, std::uint64_t& next_id) {
  const auto add = [&](svc::AnalysisKind kind, std::vector<DrtTask> ts) {
    svc::AnalysisRequest req;
    req.id = ++next_id;
    req.kind = kind;
    req.supply = supply;
    req.tasks = std::move(ts);
    out.push_back(std::move(req));
  };
  add(svc::AnalysisKind::kStructural, {tasks[0]});
  add(svc::AnalysisKind::kFp, tasks);
  add(svc::AnalysisKind::kEdf, tasks);
  add(svc::AnalysisKind::kEdf, tasks);  // polling: the most repeated query
  add(svc::AnalysisKind::kSensitivity, {tasks[0]});
  add(svc::AnalysisKind::kAudsley, tasks);
  if (deep_dive) {
    add(svc::AnalysisKind::kJointFp, {tasks[0], tasks.back()});
  }
}

/// Bit-identity of the result payloads (statuses, diagnostics, and the
/// kind's native struct); timing stats are excluded by construction.
bool same_outcome(const svc::AnalysisOutcome& a,
                  const svc::AnalysisOutcome& b) {
  if (a.id != b.id || a.kind != b.kind || a.status != b.status ||
      a.error != b.error ||
      a.diagnostics.to_json() != b.diagnostics.to_json() ||
      a.result.index() != b.result.index()) {
    return false;
  }
  if (const StructuralResult* s = a.structural()) {
    const StructuralResult* t = b.structural();
    if (t == nullptr) return false;
    return s->delay == t->delay && s->backlog == t->backlog &&
           s->busy_window == t->busy_window &&
           s->vertex_delays == t->vertex_delays &&
           s->meets_vertex_deadlines == t->meets_vertex_deadlines &&
           s->stats.generated == t->stats.generated &&
           s->stats.expanded == t->stats.expanded;
  }
  if (const FpResult* f = a.fp()) {
    const FpResult* g = b.fp();
    if (g == nullptr) return false;
    if (f->overloaded != g->overloaded ||
        f->system_busy_window != g->system_busy_window ||
        f->tasks.size() != g->tasks.size()) {
      return false;
    }
    for (std::size_t i = 0; i < f->tasks.size(); ++i) {
      if (f->tasks[i].structural_delay != g->tasks[i].structural_delay ||
          f->tasks[i].curve_delay != g->tasks[i].curve_delay ||
          f->tasks[i].busy_window != g->tasks[i].busy_window) {
        return false;
      }
    }
    return true;
  }
  if (const EdfResult* e = a.edf()) {
    const EdfResult* f2 = b.edf();
    if (f2 == nullptr) return false;
    return e->schedulable == f2->schedulable &&
           e->overloaded == f2->overloaded && e->margin == f2->margin &&
           e->horizon_checked == f2->horizon_checked;
  }
  if (const JointFpResult* j = a.joint_fp()) {
    const JointFpResult* k = b.joint_fp();
    if (k == nullptr) return false;
    return j->overloaded == k->overloaded &&
           j->joint_delay == k->joint_delay &&
           j->rbf_delay == k->rbf_delay &&
           j->paths_analyzed == k->paths_analyzed;
  }
  if (const SensitivityReport* r = a.sensitivity()) {
    const SensitivityReport* s2 = b.sensitivity();
    if (s2 == nullptr) return false;
    return r->feasible == s2->feasible &&
           r->wcet_slack == s2->wcet_slack &&
           r->separation_slack == s2->separation_slack;
  }
  if (const AudsleyResult* u = a.audsley()) {
    const AudsleyResult* v = b.audsley();
    if (v == nullptr) return false;
    return u->feasible == v->feasible && u->order == v->order &&
           u->tests_run == v->tests_run;
  }
  return true;  // monostate == monostate
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Serves `reqs` through a Service configured by `sopts`, enqueueing the
/// whole stream before dispatch so batching windows cover it.
std::vector<svc::AnalysisOutcome> serve(const svc::ServiceOptions& sopts,
                                        std::vector<svc::AnalysisRequest> reqs,
                                        svc::ServiceStats& stats_out) {
  svc::Service service(sopts);
  std::vector<std::future<svc::AnalysisOutcome>> futures;
  futures.reserve(reqs.size());
  for (svc::AnalysisRequest& req : reqs) {
    futures.push_back(service.submit(std::move(req)));
  }
  service.resume();
  std::vector<svc::AnalysisOutcome> outs;
  outs.reserve(futures.size());
  for (auto& f : futures) outs.push_back(f.get());
  stats_out = service.stats();
  return outs;
}

}  // namespace

int main() {
  // Observability on for every configuration (uniform overhead, fair
  // ratios).
  obs::set_enabled(true);

  const Supply supply = Supply::tdma(Time(35), Time(50));

  // Seeds are drawn in order from 9000 until each system is lint-clean.
  std::vector<svc::AnalysisRequest> reqs;
  std::uint64_t next_id = 0;
  std::uint64_t seed = 9000;
  int redraws = 0;
  for (int s = 0; s < kSystems; ++s) {
    std::vector<DrtTask> tasks = random_system(seed++);
    while (!lint_clean(tasks, supply)) {
      ++redraws;
      tasks = random_system(seed++);
    }
    for (int r = 0; r < kRoundsPerSystem; ++r) {
      push_round(reqs, tasks, supply, /*deep_dive=*/r == 0, next_id);
    }
  }

  std::cout << "E12: batch service vs cold per-request baseline\n"
            << reqs.size() << " requests over " << kSystems
            << " task systems (" << kRoundsPerSystem
            << " rounds of every kind per system) on " << supply.describe()
            << "; " << redraws << " seed redraw(s) to pass strt::check; "
            << kRepetitions << " interleaved repetitions\n\n";

  BenchReport report("service");
  report.metric("requests", reqs.size());
  report.metric("task_systems", kSystems);
  report.metric("rounds_per_system", kRoundsPerSystem);
  report.metric("repetitions", kRepetitions);
  report.metric("seed_redraws", redraws);

  // Cold per-request baseline: a fresh private workspace per request,
  // strictly serial (the one-shot CLI usage pattern).  Then the warm
  // batch service (the production configuration) and the no-batch
  // ablation (shared warm workspace only), each on a fresh Service.
  svc::ServiceOptions warm_opts;
  warm_opts.start_paused = true;
  warm_opts.queue_capacity = reqs.size() + 1;
  warm_opts.max_batch = 64;
  svc::ServiceOptions ablation_opts = warm_opts;
  ablation_opts.batch_by_fingerprint = false;

  std::vector<svc::AnalysisOutcome> baseline;
  std::vector<svc::AnalysisOutcome> served;
  std::vector<svc::AnalysisOutcome> ablated;
  svc::ServiceStats warm_stats;
  svc::ServiceStats ablation_stats;
  std::vector<double> cold_runs;
  std::vector<double> warm_runs;
  std::vector<double> ablation_runs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    {
      baseline.clear();
      baseline.reserve(reqs.size());
      Phase phase("cold_baseline");
      for (const svc::AnalysisRequest& req : reqs) {
        baseline.push_back(svc::run_request(req));
      }
      cold_runs.push_back(phase.millis());
    }
    {
      Phase phase("warm_service");
      served = serve(warm_opts, reqs, warm_stats);
      warm_runs.push_back(phase.millis());
    }
    {
      Phase phase("warm_nobatch");
      ablated = serve(ablation_opts, reqs, ablation_stats);
      ablation_runs.push_back(phase.millis());
    }

    // Bit-identity gate: timings mean nothing if the answers moved.
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!same_outcome(baseline[i], served[i]) ||
          !same_outcome(baseline[i], ablated[i])) {
        std::cerr << "bench: outcome mismatch vs the cold baseline at "
                     "request id "
                  << baseline[i].id << " -- service results must be "
                  << "bit-identical; not reporting timings\n";
        return 1;
      }
    }
  }
  const double cold_ms = median(cold_runs);
  const double warm_ms = median(warm_runs);
  const double ablation_ms = median(ablation_runs);
  std::cout << "bit-identity: all " << reqs.size()
            << " outcomes match the cold baseline in every repetition\n\n";

  const double n = static_cast<double>(reqs.size());
  const auto throughput = [n](double ms) { return n / (ms / 1e3); };
  const double speedup = cold_ms / warm_ms;

  const auto spread = [](const std::vector<double>& runs) {
    const auto [lo, hi] = std::minmax_element(runs.begin(), runs.end());
    return fmt_ratio(*lo) + "-" + fmt_ratio(*hi);
  };
  Table table({"configuration", "median ms", "min-max ms", "req/s",
               "vs cold", "batches", "batched reqs"});
  table.add_row({"cold per-request", fmt_ratio(cold_ms), spread(cold_runs),
                 fmt_ratio(throughput(cold_ms), 0), "1.00x", "-", "-"});
  table.add_row({"warm no-batch", fmt_ratio(ablation_ms),
                 spread(ablation_runs), fmt_ratio(throughput(ablation_ms), 0),
                 fmt_ratio(cold_ms / ablation_ms) + "x",
                 std::to_string(ablation_stats.batches),
                 std::to_string(ablation_stats.batched_requests)});
  table.add_row({"warm batch service", fmt_ratio(warm_ms), spread(warm_runs),
                 fmt_ratio(throughput(warm_ms), 0),
                 fmt_ratio(speedup) + "x",
                 std::to_string(warm_stats.batches),
                 std::to_string(warm_stats.batched_requests)});
  table.print(std::cout);

  std::cout << "\nwarm batch service vs cold baseline: " << fmt_ratio(speedup)
            << "x of the medians (regression bar: >= 2x)\n";

  report.metric("cold_ms", cold_ms);
  report.metric("warm_ms", warm_ms);
  report.metric("warm_nobatch_ms", ablation_ms);
  report.metric("cold_req_per_s", throughput(cold_ms));
  report.metric("warm_req_per_s", throughput(warm_ms));
  report.metric("speedup", speedup);
  report.metric("speedup_ok", speedup >= 2.0);
  report.metric("identical", true);
  report.metric("batches", warm_stats.batches);
  report.metric("batched_requests", warm_stats.batched_requests);

  // Exact p50/p99 over the last repetition's outcomes: service time
  // (run_us) and, on the warm path, queue wait (queue_us), reported apart.
  const auto tails = [&](const std::string& key,
                         std::vector<std::int64_t> us) {
    std::sort(us.begin(), us.end());
    const std::int64_t p50 = us[(us.size() - 1) / 2];
    const std::int64_t p99 = us[(us.size() - 1) * 99 / 100];
    report.metric(key + "_p50_us", p50);
    report.metric(key + "_p99_us", p99);
    std::cout << "  " << key << " (us): p50 " << p50 << " / p99 " << p99
              << '\n';
  };
  std::vector<std::int64_t> cold_service;
  std::vector<std::int64_t> warm_service;
  std::vector<std::int64_t> warm_queue;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    cold_service.push_back(baseline[i].stats.run_us);
    warm_service.push_back(served[i].stats.run_us);
    warm_queue.push_back(served[i].stats.queue_us);
  }
  std::cout << "\nper-request latency, service time apart from queue wait:\n";
  tails("cold_service", std::move(cold_service));
  tails("warm_service", std::move(warm_service));
  tails("warm_queue", std::move(warm_queue));

  // Restart-warm phase: the persistent-snapshot story.  A cold
  // workspace answers the corpus once (restart baseline, memos built
  // from nothing), persists its warmth, and a *fresh* workspace -- the
  // process-restart stand-in -- loads the snapshot and answers the same
  // corpus.  Every configuration (snapshot off, snapshot on,
  // corrupted-then-rejected) must stay bit-identical to the cold baseline
  // before the timing is reported; the warm-from-disk ratio is printed
  // but not gated (it has measured 0.94-1.08x).
  const std::string snap_path =
      (std::filesystem::temp_directory_path() /
       ("strt_bench_snapshot_" + std::to_string(::getpid()) + ".bin"))
          .string();
  std::cout << "\nrestart-warm sweep (snapshot " << snap_path << ")\n";

  double restart_cold_ms = 0;
  std::vector<svc::AnalysisOutcome> restart_cold;
  {
    engine::Workspace cold_ws;
    Phase phase("restart_cold");
    restart_cold.reserve(reqs.size());
    for (const svc::AnalysisRequest& req : reqs) {
      restart_cold.push_back(svc::run_request(cold_ws, req));
    }
    restart_cold_ms = phase.millis();
    if (!cold_ws.save_snapshot(snap_path)) {
      std::cerr << "bench: saving the warm-start snapshot failed\n";
      return 1;
    }
  }

  double restart_warm_ms = 0;
  std::vector<svc::AnalysisOutcome> restart_warm;
  std::uint64_t warm_hits = 0;
  {
    engine::Workspace warm_ws;
    if (!warm_ws.load_snapshot(snap_path)) {
      std::cerr << "bench: loading the just-saved snapshot failed\n";
      return 1;
    }
    Phase phase("restart_warm_from_disk");
    restart_warm.reserve(reqs.size());
    for (const svc::AnalysisRequest& req : reqs) {
      restart_warm.push_back(svc::run_request(warm_ws, req));
    }
    restart_warm_ms = phase.millis();
    warm_hits = warm_ws.stats().hits;
  }

  // Corrupted snapshot: flip one payload byte; the load must reject
  // whole and the workspace must cold-start to identical answers.
  {
    std::fstream f(snap_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(48);
    char b = 0;
    f.get(b);
    f.seekp(48);
    f.put(static_cast<char>(b ^ 0x5a));
  }
  std::vector<svc::AnalysisOutcome> rejected_run;
  bool rejected_cleanly = false;
  {
    engine::Workspace rejected_ws;
    rejected_cleanly = !rejected_ws.load_snapshot(snap_path) &&
                       rejected_ws.stats().bytes == 0;
    rejected_run.reserve(reqs.size());
    for (const svc::AnalysisRequest& req : reqs) {
      rejected_run.push_back(svc::run_request(rejected_ws, req));
    }
  }
  std::filesystem::remove(snap_path);
  if (!rejected_cleanly) {
    std::cerr << "bench: corrupted snapshot was not rejected whole\n";
    return 1;
  }

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!same_outcome(baseline[i], restart_cold[i]) ||
        !same_outcome(baseline[i], restart_warm[i]) ||
        !same_outcome(baseline[i], rejected_run[i])) {
      std::cerr << "bench: outcome mismatch vs the cold baseline in the "
                   "restart-warm sweep at request id "
                << baseline[i].id << " -- snapshot on/off/rejected must "
                << "be bit-identical; not reporting timings\n";
      return 1;
    }
  }
  const double warm_speedup = restart_cold_ms / restart_warm_ms;
  Table restart_table({"configuration", "wall ms", "req/s", "vs restart"});
  restart_table.add_row({"cold restart", fmt_ratio(restart_cold_ms),
                         fmt_ratio(throughput(restart_cold_ms), 0),
                         "1.00x"});
  restart_table.add_row({"warm from disk", fmt_ratio(restart_warm_ms),
                         fmt_ratio(throughput(restart_warm_ms), 0),
                         fmt_ratio(warm_speedup) + "x"});
  restart_table.print(std::cout);
  std::cout << "warm-from-disk vs cold restart: " << fmt_ratio(warm_speedup)
            << "x (" << warm_hits
            << " memo hits served from the snapshot; "
               "corrupted file rejected whole)\n";

  report.metric("snapshot_cold_ms", restart_cold_ms);
  report.metric("snapshot_warm_ms", restart_warm_ms);
  report.metric("snapshot_warm_speedup", warm_speedup);
  report.metric("snapshot_warm_hits", warm_hits);
  report.metric("snapshot_rejected_cleanly", rejected_cleanly);
  report.metric("snapshot_identical", true);
  if (speedup < 2.0) {
    std::cerr << "bench: warm batch service at " << fmt_ratio(speedup)
              << "x of the cold baseline (medians), below the 2x bar\n";
    return 1;
  }
  return 0;
}
