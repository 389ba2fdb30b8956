#include "core/sensitivity.hpp"

#include <functional>

#include "base/assert.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

DrtTask rebuild(const DrtTask& task,
                const std::function<DrtVertex(VertexId)>& vertex_of,
                const std::function<DrtEdge(std::size_t)>& edge_of) {
  DrtBuilder b(task.name());
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    const DrtVertex vert = vertex_of(v);
    b.add_vertex(vert.name, vert.wcet, vert.deadline);
  }
  for (std::size_t i = 0; i < task.edge_count(); ++i) {
    const DrtEdge e = edge_of(i);
    b.add_edge(e.from, e.to, e.separation);
  }
  return std::move(b).build();
}

}  // namespace

DrtTask with_wcet_increase(const DrtTask& task, VertexId v, Work extra) {
  STRT_REQUIRE(extra >= Work(0), "wcet increase must be non-negative");
  return rebuild(
      task,
      [&](VertexId u) {
        DrtVertex vert = task.vertex(u);
        if (u == v) vert.wcet += extra;
        return vert;
      },
      [&](std::size_t i) { return task.edges()[i]; });
}

DrtTask with_separation_decrease(const DrtTask& task,
                                 std::size_t edge_index, Time less) {
  STRT_REQUIRE(edge_index < task.edge_count(), "edge index out of range");
  STRT_REQUIRE(less >= Time(0), "separation decrease must be non-negative");
  STRT_REQUIRE(task.edges()[edge_index].separation - less >= Time(1),
               "separation must stay >= 1");
  return rebuild(
      task, [&](VertexId u) { return task.vertex(u); },
      [&](std::size_t i) {
        DrtEdge e = task.edges()[i];
        if (i == edge_index) e.separation -= less;
        return e;
      });
}

SensitivityReport sensitivity_analysis(engine::Workspace& ws,
                                       const DrtTask& task,
                                       const Supply& supply,
                                       const SensitivityOptions& opts) {
  const obs::Span span("sensitivity");
  StructuralOptions sopts;
  sopts.common() = opts.common();
  sopts.want_witness = false;

  const auto holds = [&](const DrtTask& t) {
    static obs::Counter& c_probes = obs::counter("sensitivity.probes");
    c_probes.add(1);
    const StructuralResult res = structural_delay(ws, t, supply, sopts);
    if (res.delay.is_unbounded()) return false;
    if (opts.delay_cap) return res.delay <= *opts.delay_cap;
    return res.meets_vertex_deadlines;
  };

  SensitivityReport report;
  report.feasible = holds(task);
  report.wcet_slack.assign(task.vertex_count(), Work(0));
  report.separation_slack.assign(task.edge_count(), Time(0));
  if (!report.feasible) return report;

  // Every per-parameter search (bracket + binary search) probes its own
  // perturbed task copies and touches nothing shared, so the vertex and
  // edge sweeps run as parallel loops (bench_sensitivity gates the
  // speedup); each slot is written by exactly one parameter's search,
  // making the report independent of the schedule.
  report.wcet_slack = exec::parallel_map(
      task.vertex_count(), [&](std::size_t vi) -> Work {
        const auto v = static_cast<VertexId>(vi);
        // Doubling to bracket, then binary search; the criterion is
        // antitone in the extra demand.
        Work lo(0);  // holds
        Work hi(1);
        while (hi <= opts.max_wcet_growth &&
               holds(with_wcet_increase(task, v, hi))) {
          lo = hi;
          hi = hi * 2;
        }
        if (hi > opts.max_wcet_growth) return Work::unbounded();
        while (lo + Work(1) < hi) {
          const Work mid((lo.count() + hi.count()) / 2);
          if (holds(with_wcet_increase(task, v, mid))) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        return lo;
      });

  report.separation_slack = exec::parallel_map(
      task.edge_count(), [&](std::size_t i) -> Time {
        const Time sep = task.edges()[i].separation;
        Time lo(0);               // holds
        Time hi = sep - Time(1);  // maximal legal reduction
        if (hi > Time(0) && holds(with_separation_decrease(task, i, hi))) {
          return hi;
        }
        while (lo + Time(1) < hi) {
          const Time mid((lo.count() + hi.count()) / 2);
          if (holds(with_separation_decrease(task, i, mid))) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        return lo;
      });
  return report;
}

}  // namespace strt
