// strt::check -- one seeded defective model per diagnostic code, clean
// models stay clean, and checking never perturbs analysis results.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"
#include "io/curve_csv.hpp"
#include "io/parse.hpp"
#include "model/gmf.hpp"
#include "model/recurring.hpp"
#include "model/sporadic.hpp"
#include "resource/supply.hpp"
#include "svc/api.hpp"
#include "svc/request_stream.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

using check::CheckResult;
using check::Severity;

/// One seeded defective model per diagnostic code.  `also` lists codes
/// that necessarily co-fire (e.g. an acyclic graph always has a dead
/// end); everything else appearing in the result is a test failure.
struct Trigger {
  std::string_view code;
  std::function<CheckResult()> fire;
  std::vector<std::string_view> also = {};
};

check::TaskSpec spec_of(std::vector<check::TaskSpec::Vertex> vs,
                        std::vector<check::TaskSpec::Edge> es) {
  check::TaskSpec s;
  s.name = "seeded";
  s.vertices = std::move(vs);
  s.edges = std::move(es);
  return s;
}

DrtTask self_loop_task(std::int64_t wcet, std::int64_t deadline,
                       std::int64_t sep) {
  DrtBuilder b("loop");
  const VertexId a = b.add_vertex("A", Work(wcet), Time(deadline));
  b.add_edge(a, a, Time(sep));
  return std::move(b).build();
}

std::vector<Trigger> triggers() {
  std::vector<Trigger> t;

  t.push_back({"curve.negative", [] {
                 const std::vector<Step> pts{Step{Time(-1), Work(2)}};
                 return check::check_curve_points(pts);
               }});
  t.push_back({"curve.non-monotone", [] {
                 const std::vector<Step> pts{Step{Time(1), Work(5)},
                                             Step{Time(2), Work(3)}};
                 return check::check_curve_points(pts);
               }});
  t.push_back({"curve.nonzero-origin", [] {
                 return check::check_arrival_curve(Staircase::from_points(
                     {Step{Time(0), Work(1)}}, Time(10)));
               }});
  t.push_back({"curve.unbounded-inverse", [] {
                 // No periodic tail: the pseudo-inverse is undefined past
                 // the horizon value.
                 return check::check_supply_curve(Staircase::from_points(
                     {Step{Time(1), Work(1)}}, Time(10)));
               }});

  t.push_back({"curve.too-large", [] {
                 // Utilization 1/2 on a unit-rate dedicated resource: the
                 // busy window is 2^28 ticks, so the supply curve on it
                 // would need 2^28 steps.
                 constexpr std::int64_t kWcet = std::int64_t{1} << 28;
                 svc::AnalysisRequest req;
                 req.tasks = {self_loop_task(kWcet, kWcet, 2 * kWcet)};
                 req.supply = Supply::dedicated(1);
                 return svc::run_request(req).diagnostics;
               }});
  t.push_back({"drt.acyclic",
               [] {
                 DrtBuilder b("dag");
                 const VertexId a = b.add_vertex("A", Work(1), Time(3));
                 const VertexId c = b.add_vertex("B", Work(1), Time(3));
                 b.add_edge(a, c, Time(5));
                 return check::check_task(std::move(b).build());
               },
               {"drt.dead-end"}});
  t.push_back({"drt.dangling-edge", [] {
                 return check::check_task_spec(spec_of(
                     {{"A", 1, 1}}, {{0, 5, 1}}));
               }});
  t.push_back({"drt.dead-end",
               [] {
                 DrtBuilder b("leaf");
                 const VertexId a = b.add_vertex("A", Work(1), Time(3));
                 const VertexId c = b.add_vertex("B", Work(1), Time(3));
                 b.add_edge(a, a, Time(10));
                 b.add_edge(a, c, Time(3));
                 return check::check_task(std::move(b).build());
               },
               // A vertex with no way out is also on no cycle.
               {"drt.transient"}});
  t.push_back({"drt.duplicate-vertex", [] {
                 return check::check_task_spec(
                     spec_of({{"A", 1, 1}, {"A", 1, 1}}, {}));
               }});
  t.push_back({"drt.empty",
               [] { return check::check_task_spec(spec_of({}, {})); }});
  t.push_back({"drt.nonpositive-deadline", [] {
                 return check::check_task_spec(spec_of({{"A", 1, 0}}, {}));
               }});
  t.push_back({"drt.nonpositive-separation", [] {
                 return check::check_task_spec(spec_of(
                     {{"A", 1, 1}, {"B", 1, 1}}, {{0, 1, 0}}));
               }});
  t.push_back({"drt.nonpositive-wcet", [] {
                 return check::check_task_spec(spec_of({{"A", 0, 1}}, {}));
               }});
  t.push_back({"drt.not-frame-separated",
               [] {
                 DrtBuilder b("late");
                 const VertexId a = b.add_vertex("A", Work(2), Time(12));
                 const VertexId c = b.add_vertex("B", Work(3), Time(12));
                 b.add_edge(a, c, Time(10));  // deadline 12 > sep 10
                 b.add_edge(c, a, Time(15));
                 return check::check_task(std::move(b).build());
               }});
  t.push_back({"drt.overflow", [] {
                 // U = 2^62 / (2^62 + 1): the second Dinkelbach probe's
                 // weights leave int64.
                 constexpr std::int64_t kWcet = std::int64_t{1} << 62;
                 return check::check_task(
                     self_loop_task(kWcet, kWcet, kWcet + 1));
               }});
  t.push_back({"drt.overutilized", [] {
                 return check::check_task(self_loop_task(5, 5, 5));
               }});
  t.push_back({"drt.transient", [] {
                 DrtBuilder b("pre");
                 const VertexId a = b.add_vertex("A", Work(1), Time(5));
                 const VertexId c = b.add_vertex("C", Work(1), Time(4));
                 b.add_edge(a, a, Time(5));
                 b.add_edge(c, a, Time(4));
                 return check::check_task(std::move(b).build());
               }});
  t.push_back({"drt.wcet-exceeds-deadline", [] {
                 return check::check_task(self_loop_task(6, 5, 7));
               }});

  t.push_back({"gmf.deadline-exceeds-separation", [] {
                 return check::check_gmf(GmfTask(
                     "g", {GmfFrame{Work(1), Time(5), Time(3)},
                           GmfFrame{Work(1), Time(2), Time(4)}}));
               }});
  t.push_back({"gmf.overutilized", [] {
                 return check::check_gmf(GmfTask(
                     "g", {GmfFrame{Work(2), Time(2), Time(2)},
                           GmfFrame{Work(2), Time(2), Time(2)}}));
               }});
  t.push_back({"gmf.wcet-exceeds-deadline", [] {
                 return check::check_gmf(GmfTask(
                     "g", {GmfFrame{Work(3), Time(2), Time(10)}}));
               }});

  t.push_back({"parse.duplicate-vertex", [] {
                 return parse_task_checked("task t\n"
                                           "vertex A wcet 1 deadline 1\n"
                                           "vertex A wcet 1 deadline 1\n")
                     .diagnostics;
               }});
  t.push_back({"parse.invalid-value", [] {
                 return parse_task_checked(
                            "task t\nvertex A wcet X deadline 1\n")
                     .diagnostics;
               }});
  t.push_back({"parse.missing-field", [] {
                 return parse_task_checked(
                            "task t\nvertex A wcet 1 deadlin 1\n")
                     .diagnostics;
               }});
  t.push_back({"parse.no-task",
               [] { return parse_task_checked("").diagnostics; }});
  t.push_back({"parse.syntax", [] {
                 return parse_task_checked("task t\nbogus\n").diagnostics;
               }});
  t.push_back({"parse.unknown-vertex", [] {
                 return parse_task_checked("task t\n"
                                           "vertex A wcet 1 deadline 1\n"
                                           "edge A Z sep 1\n")
                     .diagnostics;
               }});

  t.push_back({"req.bad-field", [] {
                 return svc::parse_request_json(
                            R"({"kind": "structural", "max_states": "lots",)"
                            R"( "task": "task t\nvertex A wcet 1 deadline 5\n)"
                            R"(edge A A sep 5"})")
                     .diagnostics;
               }});
  t.push_back({"req.missing-task", [] {
                 return svc::parse_request_json(R"({"kind": "structural"})")
                     .diagnostics;
               }});
  t.push_back({"req.unknown-kind", [] {
                 return svc::parse_request_json(
                            R"({"kind": "holistic",)"
                            R"( "task": "task t\nvertex A wcet 1 deadline 5\n)"
                            R"(edge A A sep 5"})")
                     .diagnostics;
               }});

  t.push_back({"recurring.inconsistent-period", [] {
                 RecurringTaskBuilder b("r");
                 const VertexId root = b.set_root("R", Work(1), Time(5));
                 const VertexId x =
                     b.add_child(root, "X", Work(1), Time(5), Time(10));
                 const VertexId y =
                     b.add_child(root, "Y", Work(1), Time(5), Time(10));
                 b.add_restart(x, Time(10));  // period 20
                 b.add_restart(y, Time(15));  // period 25
                 return check::check_recurring(b);
               }});
  t.push_back({"recurring.missing-restart", [] {
                 RecurringTaskBuilder b("r");
                 const VertexId root = b.set_root("R", Work(1), Time(5));
                 b.add_child(root, "X", Work(1), Time(5), Time(10));
                 return check::check_recurring(b);
               }});

  t.push_back({"set.duplicate-task", [] {
                 const std::vector<DrtTask> tasks{test::clean_task(),
                                                  test::clean_task()};
                 return check::check_task_set(tasks);
               }});
  t.push_back({"set.overutilized", [] {
                 const std::vector<DrtTask> tasks{
                     self_loop_task(2, 4, 4), self_loop_task(2, 5, 5),
                     self_loop_task(2, 6, 6)};
                 return check::check_task_set(tasks);
               }});

  t.push_back({"sporadic.overutilized", [] {
                 return check::check_sporadic(
                     SporadicTask{"s", Work(5), Time(4), Time(5)});
               }});
  t.push_back({"sporadic.wcet-exceeds-deadline", [] {
                 return check::check_sporadic(
                     SporadicTask{"s", Work(3), Time(10), Time(2)});
               }});

  t.push_back({"supply.near-overload", [] {
                 // Utilization 1/(2^17 + 1) right under the rate 1/2^17,
                 // after a one-job burst: the busy window (about 2^35
                 // ticks) exists but lies past the horizon guard.  The
                 // large separations and cycle keep every
                 // materialization to tens of thousands of steps.
                 constexpr std::int64_t kCycle = std::int64_t{1} << 17;
                 DrtBuilder b("slow");
                 const VertexId x = b.add_vertex("X", Work(1), Time(1));
                 const VertexId y = b.add_vertex("Y", Work(1), Time(kCycle));
                 b.add_edge(x, y, Time(1));
                 b.add_edge(y, y, Time(kCycle + 1));
                 // Past every horizon searched: no path takes it.
                 b.add_edge(y, x, Time(std::int64_t{1} << 34));
                 svc::AnalysisRequest req;
                 req.tasks = {std::move(b).build()};
                 req.supply = Supply::tdma(Time(1), Time(kCycle));
                 return svc::run_request(req).diagnostics;
               }});
  t.push_back({"supply.overload", [] {
                 const std::vector<DrtTask> tasks{test::clean_task()};
                 // Long-run rate 1/5 == the set's utilization sum.
                 return check::check_system(
                     tasks, Supply::bounded_delay(Rational(1, 5), Time(2)));
               }});

  return t;
}

TEST(CheckRegistry, EveryCodeHasATriggerThatFiresExactlyIt) {
  const std::vector<Trigger> table = triggers();
  for (const check::CodeInfo& info : check::all_codes()) {
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&](const Trigger& t) { return t.code == info.code; });
    ASSERT_NE(it, table.end()) << "no trigger for " << info.code;
    const CheckResult r = it->fire();
    EXPECT_TRUE(r.has(info.code)) << info.code << " did not fire";
    for (const check::Diagnostic& d : r.diagnostics()) {
      const bool expected =
          d.code == info.code ||
          std::find(it->also.begin(), it->also.end(), d.code) !=
              it->also.end();
      EXPECT_TRUE(expected) << "trigger for " << info.code
                            << " also fired unexpected " << d.code;
      if (d.code == info.code) {
        EXPECT_EQ(d.severity, info.severity)
            << info.code << " severity mismatch with registry";
      }
    }
  }
}

TEST(CheckRegistry, TriggerTableMatchesRegistry) {
  const auto codes = check::all_codes();
  for (const Trigger& t : triggers()) {
    const bool known = std::any_of(
        codes.begin(), codes.end(),
        [&](const check::CodeInfo& c) { return c.code == t.code; });
    EXPECT_TRUE(known) << "trigger for unregistered code " << t.code;
  }
  // Sorted by code, no duplicates.
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LT(codes[i - 1].code, codes[i].code);
  }
}

TEST(CheckClean, CleanTaskHasZeroDiagnostics) {
  const CheckResult r = check::check_task(test::clean_task());
  EXPECT_TRUE(r.clean()) << [&] {
    std::ostringstream os;
    r.print(os);
    return os.str();
  }();
}

TEST(CheckClean, SmallTaskIsOkButNotFrameSeparated) {
  // The long-standing shared fixture is analyzable (no errors) but not
  // frame-separated -- pin that so the lint keeps agreeing with
  // DrtTask::has_frame_separation.
  const CheckResult r = check::check_task(test::small_task());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.has("drt.not-frame-separated"));
  EXPECT_EQ(r.diagnostics().size(), r.count("drt.not-frame-separated"));
}

TEST(CheckClean, CleanModelsAcrossFormalisms) {
  EXPECT_TRUE(check::check_gmf(
                  GmfTask("g", {GmfFrame{Work(1), Time(3), Time(4)},
                                GmfFrame{Work(2), Time(5), Time(6)}}))
                  .clean());
  EXPECT_TRUE(check::check_sporadic(
                  SporadicTask{"s", Work(2), Time(10), Time(8)})
                  .clean());
  RecurringTaskBuilder b("r");
  const VertexId root = b.set_root("R", Work(1), Time(4));
  b.add_child(root, "X", Work(1), Time(4), Time(10));
  b.add_child(root, "Y", Work(1), Time(4), Time(12));
  b.with_global_period(Time(30));
  EXPECT_TRUE(check::check_recurring(b).clean());

  const std::vector<DrtTask> set{test::clean_task(),
                                 self_loop_task(1, 5, 10)};
  EXPECT_TRUE(check::check_task_set(set).clean());
  EXPECT_TRUE(
      check::check_system(set, Supply::dedicated(1)).clean());
  const Supply tdma = Supply::tdma(Time(3), Time(8));
  EXPECT_TRUE(
      check::check_supply_curve(tdma.sbf(tdma.min_horizon())).clean());
}

TEST(CheckClean, DemoTaskFileRoundTrip) {
  // Keep examples/data/demo.task in sync with the lint smoke tests.
  const ParseResult res = parse_task_checked(
      "task cruise\n"
      "vertex A wcet 2 deadline 10\n"
      "vertex B wcet 3 deadline 12\n"
      "edge A B sep 10\n"
      "edge B A sep 15\n");
  ASSERT_TRUE(res.task.has_value());
  EXPECT_TRUE(res.diagnostics.clean());
}

TEST(CheckPurity, ValidationNeverChangesAnalysisResults) {
  const DrtTask task = test::clean_task();
  const Time h(60);
  const Staircase direct = rbf(task, h);

  engine::Workspace checked_ws(true);
  const auto diag = checked_ws.validate(task);
  EXPECT_TRUE(diag->clean());
  const auto via_checked = checked_ws.rbf(task, h);

  engine::Workspace unchecked_ws(true);
  const auto via_unchecked = unchecked_ws.rbf(task, h);

  EXPECT_EQ(*via_checked, direct);
  EXPECT_EQ(*via_unchecked, direct);
}

TEST(CheckPurity, WorkspaceValidateIsMemoized) {
  engine::Workspace ws(true);
  const DrtTask task = test::small_task();
  const auto first = ws.validate(task);
  const auto second = ws.validate(task);
  EXPECT_EQ(first.get(), second.get());  // same shared result by fingerprint
  EXPECT_TRUE(first->has("drt.not-frame-separated"));

  engine::Workspace off(false);
  const auto fresh_a = off.validate(task);
  const auto fresh_b = off.validate(task);
  EXPECT_NE(fresh_a.get(), fresh_b.get());
  EXPECT_EQ(fresh_a->diagnostics().size(), fresh_b->diagnostics().size());
}

TEST(CheckResultApi, JsonAndCountsAreConsistent) {
  CheckResult r;
  r.add(Severity::kError, "drt.empty", "task t", "task has no vertices");
  r.add(Severity::kWarning, "drt.dead-end", "vertex B", "no outgoing edge");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.error_count(), 1u);
  EXPECT_EQ(r.warning_count(), 1u);
  EXPECT_EQ(r.count("drt.empty"), 1u);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"code\":\"drt.empty\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

}  // namespace
}  // namespace strt
