// File-driven analysis: read a task description and a supply description,
// run the full abstraction spectrum, print the verdict.
//
//   $ ./examples/analyze_file <task-file> "<supply spec>" [deadline]
//   $ ./examples/analyze_file            # runs a built-in demo input
//
// With `--report out.json` (anywhere on the command line) a structured
// run report -- analysis inputs/outputs, cache statistics, observability
// counters, and the timing-span tree -- is appended to `out.json` as one
// JSON line (schema strt.obs.report.v2, see README "Observability").
// Set STRT_OBS=1 to populate the counters and spans; the report is
// written either way.
//
// `--no-cache` disables the engine workspace memoization (results are
// bit-identical; useful for ablations) and `--threads N` pins the exec
// participant count (0 = hardware default).  A thread count or deadline that is
// not a whole non-negative number is rejected with exit code 2.
//
// `--snapshot PATH` warm-starts the workspace from a persistent snapshot
// (strt.engine.snapshot.v2; missing or rejected files cold-start clean)
// and saves the warmed state back before exiting.  It defaults to the
// STRT_SNAPSHOT environment variable and never changes a result
// (bit-identity contract).
// The `--report` JSON embeds the resolved effective configuration under
// "config".
//
// `--check` runs the strt::check domain lint (task, task/supply system,
// supply curve) before the analysis and prints its diagnostics; errors
// abort with exit code 1.  `--check=strict` additionally treats warnings
// as errors.  Diagnostics flow into the `--report` JSON either way
// (check.report / check.errors / check.warnings fields).  Checking never
// changes the analysis results -- it only gates them.
//
// Task file format (see src/io/parse.hpp):
//     task burst
//     vertex B wcet 8 deadline 60
//     vertex T wcet 1 deadline 20
//     edge B T sep 9
//     edge T T sep 9
//     edge T B sep 70
//
// Supply spec examples: "tdma slot 3 cycle 8",
// "periodic budget 4 period 9", "dedicated rate 1",
// "bounded_delay rate 3/4 delay 5".

#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "base/config.hpp"
#include "check/check.hpp"
#include "core/abstractions.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "io/dot.hpp"
#include "io/parse.hpp"
#include "io/table.hpp"
#include "obs/report.hpp"
#include "svc/api.hpp"

using namespace strt;

namespace {

constexpr const char* kDemoTask = R"(# built-in demo workload
task burst
vertex B wcet 8 deadline 60
vertex T wcet 1 deadline 20
edge B T sep 9
edge T T sep 9
edge T B sep 70
)";

std::string show(Time t) {
  return t.is_unbounded() ? "unbounded" : std::to_string(t.count());
}

}  // namespace

int main(int argc, char** argv) {
  std::string task_text = kDemoTask;
  std::string supply_text = "tdma slot 3 cycle 8";
  std::optional<Time> deadline;
  std::string report_path;
  std::string snapshot_flag;
  bool no_cache = false;
  bool check = false;
  bool check_strict = false;

  // Peel off the `--flag` arguments wherever they appear; the remaining
  // positional arguments keep their original meaning.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--report") {
      if (i + 1 >= argc) {
        std::cerr << "--report requires a file path\n";
        return 2;
      }
      report_path = argv[++i];
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--snapshot") {
      if (i + 1 >= argc) {
        std::cerr << "--snapshot requires a file path\n";
        return 2;
      }
      snapshot_flag = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check=strict") {
      check = true;
      check_strict = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "--threads requires a count\n";
        return 2;
      }
      const std::string text = argv[++i];
      const std::optional<std::int64_t> n = cfg::parse_int(text, 0);
      if (!n) {
        std::cerr << "--threads: cannot parse '" << text << "'\n";
        return 2;
      }
      exec::set_thread_count(static_cast<std::size_t>(*n));
    } else {
      args.emplace_back(arg);
    }
  }

  if (args.size() >= 2) {
    std::ifstream file(args[0]);
    if (!file) {
      std::cerr << "cannot open task file '" << args[0] << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    task_text = buffer.str();
    supply_text = args[1];
    if (args.size() >= 3) {
      const std::optional<std::int64_t> d = cfg::parse_int(args[2], 0);
      if (!d) {
        std::cerr << "deadline: cannot parse '" << args[2] << "'\n";
        return 2;
      }
      deadline = Time(*d);
    }
  } else if (!args.empty()) {
    std::cerr << "usage: analyze_file <task-file> \"<supply spec>\" "
                 "[deadline] [--report out.json] [--no-cache] "
                 "[--snapshot PATH] "
                 "[--check[=strict]] [--threads N]\n"
                 "(no positional arguments runs a built-in demo)\n";
    return 2;
  }

  check::CheckResult lint;
  std::optional<DrtTask> parsed;
  if (check) {
    ParseResult res = parse_task_checked(task_text);
    lint.merge(std::move(res.diagnostics));
    parsed = std::move(res.task);
  } else {
    try {
      parsed = parse_task(task_text);
    } catch (const std::invalid_argument& e) {
      std::cerr << "task: " << e.what() << '\n';
      return 2;
    }
  }
  const Supply supply = [&] {
    try {
      return parse_supply(supply_text);
    } catch (const std::invalid_argument& e) {
      std::cerr << "supply: " << e.what() << '\n';
      std::exit(2);
    }
  }();

  if (check && !parsed) {
    if (!lint.clean()) lint.print(std::cerr);
    std::cerr << "check: " << lint.error_count() << " error(s), "
              << lint.warning_count() << " warning(s)\n";
    return 1;
  }
  if (!parsed) return 2;
  DrtTask task = std::move(*parsed);

  std::cout << "Task:   " << task << '\n';
  std::cout << "Supply: " << supply.describe() << "\n\n";

  // One workspace shared across the whole run: the unified request below
  // and the coarser abstractions reuse the exact rbf/sbf the earlier
  // steps materialized.  With a snapshot path resolved (flag >
  // STRT_SNAPSHOT) the run warm-starts from disk and saves back at the
  // end; a missing or rejected snapshot simply cold-starts.
  const std::string snapshot_path = cfg::get_string(
      "STRT_SNAPSHOT", "",
      snapshot_flag.empty()
          ? std::nullopt
          : std::optional<std::string_view>(snapshot_flag));
  engine::Workspace ws(!no_cache);
  if (!snapshot_path.empty()) (void)ws.load_snapshot(snapshot_path);

  // The headline structural analysis goes through the unified request
  // API: svc::run_request lints the system (the same strt::check passes
  // `--check` used to invoke by hand), runs the analysis, and hands back
  // a tagged outcome plus the diagnostics.
  svc::AnalysisRequest request;
  request.kind = svc::AnalysisKind::kStructural;
  request.tasks = {task};
  request.supply = supply;
  const svc::AnalysisOutcome outcome = svc::run_request(ws, request);
  lint.merge(outcome.diagnostics);
  if (check) {
    if (!lint.clean()) lint.print(std::cerr);
    const bool gate =
        !lint.ok() || (check_strict && lint.warning_count() > 0);
    if (gate) {
      std::cerr << "check: " << lint.error_count() << " error(s), "
                << lint.warning_count() << " warning(s)"
                << (check_strict ? " (strict: warnings are fatal)" : "")
                << '\n';
      return 1;
    }
  } else if (outcome.status == svc::OutcomeStatus::kInvalid) {
    lint.print(std::cerr);
    std::cerr << "model rejected by the validate front gate (re-run with "
                 "--check for details)\n";
    return 1;
  }

  obs::RunReport report("analyze_file");
  outcome.append_to_report(report);
  report.put("task", task.name());
  report.put("supply", supply.describe());
  report.put("vertices", static_cast<std::int64_t>(task.vertex_count()));
  report.put("edges", static_cast<std::int64_t>(task.edge_count()));
  if (deadline) report.put("deadline", deadline->count());

  Table table({"analysis", "delay", "backlog", "busy window",
               deadline ? "meets deadline" : "-"});
  for (const WorkloadAbstraction a : kAllAbstractions) {
    const AbstractionResult r = delay_with_abstraction(ws, task, supply, a);
    std::string verdict = "-";
    if (deadline) {
      verdict = (!r.delay.is_unbounded() && r.delay <= *deadline) ? "yes"
                                                                  : "no";
    }
    table.add_row({std::string(abstraction_name(a)), show(r.delay),
                   r.backlog.is_unbounded()
                       ? "unbounded"
                       : std::to_string(r.backlog.count()),
                   show(r.busy_window), verdict});
    const std::string key = "delay." + std::string(abstraction_name(a));
    if (r.delay.is_unbounded()) {
      report.put(key, "unbounded");
    } else {
      report.put(key, r.delay.count());
    }
  }
  table.print(std::cout);

  const engine::WorkspaceStats cache = ws.stats();
  report.put("cache.enabled", ws.caching());
  report.put("cache.hits", static_cast<std::int64_t>(cache.hits));
  report.put("cache.misses", static_cast<std::int64_t>(cache.misses));
  report.put("cache.bytes", static_cast<std::int64_t>(cache.bytes));
  if (!snapshot_path.empty()) {
    std::string save_error;
    if (!ws.save_snapshot(snapshot_path, &save_error)) {
      std::cerr << "snapshot save failed: " << save_error << '\n';
    }
    report.put("snapshot.path", snapshot_path);
  }
  // The exact configuration this run resolved (flag > STRT_* env >
  // default, per knob), so a report is reproducible on its own.
  report.put_json("config", cfg::effective_config_json());

  report.capture();
  if (obs::enabled()) {
    std::cout << '\n';
    print_report_table(std::cout, report);
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::app);
    if (!out) {
      std::cerr << "cannot open report file '" << report_path << "'\n";
      return 2;
    }
    report.write_json_line(out);
    std::cout << "\nReport appended to " << report_path << '\n';
  }

  std::cout << "\nGraphviz:\n" << to_dot(task);
  return 0;
}
