// Experiment E10 (extension figure): provisioning headroom vs resource
// share.
//
// For the telemetry case-study task on growing TDMA slots, the table
// reports the deadline verdict and the slack landscape: the smallest
// per-vertex wcet slack (the binding job type) and the smallest
// separation slack (the binding release constraint).
//
// Expected shape: below some share the verdict fails (zero slack); above
// it both slacks grow monotonically -- the exact share where each job
// type stops being the bottleneck is visible as a kink.
//
// The second section gates the exec layer where it is used: the same
// sensitivity analysis on generated 24-40 vertex tasks, timed at 1 and
// at 4 participants (alternating, each run on fresh workspaces).  The
// reports must be equal and the 4-participant run >= 2x faster, enforced
// through the exit code; on a host with fewer than 4 hardware threads
// the bar is skipped.

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/sensitivity.hpp"
#include "core/structural.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "model/generator.hpp"

using namespace strt;
using namespace strt::bench;

namespace {

bool same(const SensitivityReport& a, const SensitivityReport& b) {
  return a.feasible == b.feasible && a.wcet_slack == b.wcet_slack &&
         a.separation_slack == b.separation_slack;
}

/// Times sensitivity_analysis on four generated tasks at 1 and 4
/// participants and returns the process exit code: 0 when the reports
/// agree and 4 participants are >= 2x faster (median over the rounds),
/// 1 otherwise.
int exec_gate(BenchReport& report) {
  constexpr std::size_t kParticipants = 4;
  constexpr double kBar = 2.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "\nexec gate: sensitivity at 1 vs " << kParticipants
            << " participants\n";
  if (hw < kParticipants) {
    std::cout << "bar skipped: " << hw << " hardware thread(s), fewer than "
              << kParticipants << "\n";
    report.metric("exec_gate", "skipped");
    return 0;
  }

  // Feasible generated tasks only: an infeasible one returns after a
  // single probe and times nothing.
  const Supply supply = Supply::tdma(Time(7), Time(10));
  DrtGenParams params;
  params.min_vertices = 24;
  params.max_vertices = 40;
  StructuralOptions sopts;
  sopts.want_witness = false;
  std::vector<DrtTask> tasks;
  Rng rng(2015);
  while (tasks.size() < 4) {
    GeneratedTask g = random_drt(rng, params);
    engine::Workspace ws;
    if (structural_delay(ws, g.task, supply, sopts).meets_vertex_deadlines) {
      tasks.push_back(std::move(g.task));
    }
  }

  constexpr int kRounds = 3;
  std::vector<SensitivityReport> want;
  std::vector<double> ms[2];
  for (int round = 0; round < kRounds; ++round) {
    for (const std::size_t p : {std::size_t{1}, kParticipants}) {
      exec::set_thread_count(p);
      std::vector<SensitivityReport> got;
      const Stopwatch sw;
      for (const DrtTask& t : tasks) {
        engine::Workspace ws;
        got.push_back(sensitivity_analysis(ws, t, supply));
      }
      ms[p == 1 ? 0 : 1].push_back(sw.millis());
      if (want.empty()) want = got;
      if (!std::equal(want.begin(), want.end(), got.begin(), same)) {
        std::cerr << "bench: sensitivity report differs at " << p
                  << " participant(s)\n";
        return 1;
      }
    }
  }
  exec::set_thread_count(0);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double serial = median(ms[0]);
  const double parallel = median(ms[1]);
  const double speedup = serial / parallel;
  Table table({"participants", "median ms", "min ms", "max ms"});
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}}) {
    const auto [lo, hi] = std::minmax_element(ms[k].begin(), ms[k].end());
    table.add_row({k == 0 ? "1" : std::to_string(kParticipants),
                   fmt_ratio(median(ms[k]), 0), fmt_ratio(*lo, 0),
                   fmt_ratio(*hi, 0)});
  }
  table.print(std::cout);
  std::cout << "speedup " << fmt_ratio(speedup) << "x over " << tasks.size()
            << " tasks (" << kRounds << " rounds); bar >= " << fmt_ratio(kBar)
            << "x\n";
  report.metric("exec_gate_serial_ms", serial);
  report.metric("exec_gate_parallel_ms", parallel);
  report.metric("exec_gate_speedup", speedup);
  if (speedup < kBar) {
    std::cerr << "bench: exec gate missed: " << fmt_ratio(speedup)
              << "x < " << fmt_ratio(kBar) << "x\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  DrtBuilder b("telemetry");
  const VertexId snap = b.add_vertex("snapshot", Work(6), Time(30));
  const VertexId delta = b.add_vertex("delta", Work(2), Time(12));
  b.add_edge(snap, delta, Time(12));
  b.add_edge(delta, delta, Time(8));
  b.add_edge(delta, snap, Time(40));
  const DrtTask task = std::move(b).build();

  const Time cycle(9);
  std::cout << "E10: slack landscape vs TDMA share for task "
            << task.name() << " (cycle " << cycle.count() << ")\n\n";

  BenchReport report("sensitivity");
  Table table({"slot", "verdict", "worst delay", "min wcet slack",
               "min sep slack"});
  std::vector<std::vector<std::string>> csv_rows;
  StructuralOptions sopts;
  sopts.want_witness = false;
  int feasible_slots = 0;

  for (std::int64_t slot = 1; slot <= cycle.count(); ++slot) {
    Phase phase("slot:" + std::to_string(slot));
    const Supply supply = Supply::tdma(Time(slot), cycle);
    engine::Workspace base_ws;
    const StructuralResult base =
        structural_delay(base_ws, task, supply, sopts);
    engine::Workspace sens_ws;
    const SensitivityReport rep =
        sensitivity_analysis(sens_ws, task, supply);

    std::string min_wcet = "-";
    std::string min_sep = "-";
    if (rep.feasible) {
      ++feasible_slots;
      Work w = Work::unbounded();
      for (const Work s : rep.wcet_slack) w = min(w, s);
      Time t = Time::unbounded();
      for (const Time s : rep.separation_slack) t = min(t, s);
      min_wcet = w.is_unbounded() ? "inf" : std::to_string(w.count());
      min_sep = t.is_unbounded() ? "inf" : std::to_string(t.count());
    }
    table.add_row({std::to_string(slot),
                   rep.feasible ? "PASS" : "FAIL",
                   show(base.delay), min_wcet, min_sep});
    csv_rows.push_back({std::to_string(slot),
                        rep.feasible ? "1" : "0", show(base.delay),
                        min_wcet, min_sep});
  }

  table.print(std::cout);
  std::cout << "\nCSV:\n";
  CsvWriter csv(std::cout, {"slot", "feasible", "worst_delay",
                            "min_wcet_slack", "min_sep_slack"});
  for (const auto& row : csv_rows) csv.row(row);
  report.metric("slots", csv_rows.size());
  report.metric("feasible_slots", feasible_slots);
  return exec_gate(report);
}
