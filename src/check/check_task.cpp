#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "base/checked.hpp"
#include "check/check.hpp"
#include "check/pass.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/scc.hpp"

namespace strt::check {

namespace {

constexpr auto kError = Severity::kError;
constexpr auto kWarning = Severity::kWarning;

std::string vertex_loc(const std::string& name, std::size_t index) {
  if (!name.empty()) return "vertex " + name;
  return "vertex #" + std::to_string(index);
}

std::string task_loc(const std::string& name) {
  return name.empty() ? std::string("task") : "task " + name;
}

}  // namespace

CheckResult check_task_spec(const TaskSpec& spec) {
  CheckResult r;
  const detail::Pass pass(r);

  if (spec.vertices.empty()) {
    r.add(kError, "drt.empty", task_loc(spec.name), "task has no vertices");
  }

  std::map<std::string, std::size_t> first_seen;
  for (std::size_t i = 0; i < spec.vertices.size(); ++i) {
    const TaskSpec::Vertex& v = spec.vertices[i];
    const std::string loc = vertex_loc(v.name, i);
    if (v.wcet <= 0) {
      r.add(kError, "drt.nonpositive-wcet", loc,
            "wcet " + std::to_string(v.wcet) + " must be >= 1");
    }
    if (v.deadline <= 0) {
      r.add(kError, "drt.nonpositive-deadline", loc,
            "deadline " + std::to_string(v.deadline) + " must be >= 1");
    }
    if (!v.name.empty()) {
      const auto [it, inserted] = first_seen.emplace(v.name, i);
      if (!inserted) {
        r.add(kError, "drt.duplicate-vertex", loc,
              "name already used by vertex #" + std::to_string(it->second));
      }
    }
  }

  const auto n = static_cast<std::int64_t>(spec.vertices.size());
  for (std::size_t i = 0; i < spec.edges.size(); ++i) {
    const TaskSpec::Edge& e = spec.edges[i];
    const std::string loc = "edge #" + std::to_string(i);
    const bool from_ok = e.from >= 0 && e.from < n;
    const bool to_ok = e.to >= 0 && e.to < n;
    if (!from_ok) {
      r.add(kError, "drt.dangling-edge", loc,
            "source vertex id " + std::to_string(e.from) +
                " is not declared");
    }
    if (!to_ok) {
      r.add(kError, "drt.dangling-edge", loc,
            "target vertex id " + std::to_string(e.to) + " is not declared");
    }
    if (e.separation <= 0) {
      r.add(kError, "drt.nonpositive-separation", loc,
            "separation " + std::to_string(e.separation) + " must be >= 1");
    }
  }
  return r;
}

CheckResult check_task(const DrtTask& task, const UtilizationFn& util) {
  CheckResult r;
  const detail::Pass pass(r);

  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    const DrtVertex& vert = task.vertex(v);
    const std::string loc =
        vertex_loc(vert.name, static_cast<std::size_t>(v));
    if (Time(vert.wcet.count()) > vert.deadline) {
      std::ostringstream msg;
      msg << "wcet " << vert.wcet << " exceeds deadline " << vert.deadline
          << " -- the job misses even on an idle dedicated processor";
      r.add(kError, "drt.wcet-exceeds-deadline", loc, msg.str());
    }
    if (task.out_edges(v).empty()) {
      r.add(kWarning, "drt.dead-end", loc,
            "no outgoing edge -- a run entering this vertex releases no "
            "further jobs");
    }
  }

  if (!task.is_cyclic()) {
    r.add(kWarning, "drt.acyclic", task_loc(task.name()),
          "graph has no cycle -- the task releases only finitely many "
          "jobs (long-run rate zero)");
  } else {
    // A vertex in a trivial SCC (alone, no self-loop) lies on no cycle:
    // any run visits it at most once, so it contributes nothing to the
    // long-run workload the delay analysis is about.
    const SccResult scc = strongly_connected_components(task);
    for (const std::vector<VertexId>& members : scc.members) {
      if (members.size() != 1) continue;
      const VertexId v = members.front();
      bool self_loop = false;
      for (const std::int32_t ei : task.out_edges(v)) {
        if (task.edges()[static_cast<std::size_t>(ei)].to == v) {
          self_loop = true;
          break;
        }
      }
      if (!self_loop) {
        r.add(kWarning, "drt.transient",
              vertex_loc(task.vertex(v).name, static_cast<std::size_t>(v)),
              "lies on no cycle -- released at most once per run");
      }
    }
  }

  if (!task.has_frame_separation()) {
    r.add(kWarning, "drt.not-frame-separated", task_loc(task.name()),
          "a deadline exceeds an outgoing separation; the exact dbf "
          "staircase is unavailable (rbf-based analyses still apply)");
  }

  std::optional<Rational> u;
  try {
    u = util(task);
  } catch (const OverflowError& e) {
    r.add(kError, "drt.overflow", task_loc(task.name()),
          std::string("long-run utilization leaves int64 arithmetic: ") +
              e.what());
  }
  if (u && *u >= Rational(1)) {
    std::ostringstream msg;
    msg << "long-run utilization " << u->to_string()
        << " >= 1 -- no unit-rate supply can serve this task";
    r.add(kError, "drt.overutilized", task_loc(task.name()), msg.str());
  }
  return r;
}

std::optional<DrtTask> build_task(const TaskSpec& spec, CheckResult& result) {
  CheckResult spec_result = check_task_spec(spec);
  const bool buildable = spec_result.ok();
  result.merge(std::move(spec_result));
  if (!buildable) return std::nullopt;

  DrtBuilder b(spec.name);
  for (const TaskSpec::Vertex& v : spec.vertices) {
    b.add_vertex(v.name, Work(v.wcet), Time(v.deadline));
  }
  for (const TaskSpec::Edge& e : spec.edges) {
    b.add_edge(e.from, e.to, Time(e.separation));
  }
  DrtTask task = std::move(b).build();
  result.merge(check_task(task));
  return task;
}

CheckResult check_task_set(std::span<const DrtTask> tasks,
                           const UtilizationFn& util) {
  CheckResult r;
  const detail::Pass pass(r);

  Rational total(0);
  for (const DrtTask& t : tasks) {
    if (const auto u = util(t)) total += *u;
  }
  if (total >= Rational(1)) {
    std::ostringstream msg;
    msg << "utilization sum " << total.to_string()
        << " >= 1 -- infeasible on any unit-rate resource";
    r.add(kError, "set.overutilized", "task set", msg.str());
  }

  std::map<std::uint64_t, const DrtTask*> by_fingerprint;
  for (const DrtTask& t : tasks) {
    const auto [it, inserted] = by_fingerprint.emplace(t.fingerprint(), &t);
    if (!inserted) {
      r.add(kWarning, "set.duplicate-task", task_loc(t.name()),
            "structurally identical to " + task_loc(it->second->name()) +
                " (same fingerprint)");
    }
  }
  return r;
}

CheckResult check_system(std::span<const DrtTask> tasks,
                         const Supply& supply, const UtilizationFn& util) {
  CheckResult r;
  const detail::Pass pass(r);

  Rational total(0);
  for (const DrtTask& t : tasks) {
    if (const auto u = util(t)) total += *u;
  }
  const Rational rate = supply.long_run_rate();
  if (total >= rate) {
    std::ostringstream msg;
    msg << "utilization sum " << total.to_string()
        << " reaches the supply's long-run rate " << rate.to_string()
        << " -- the busy-window iteration diverges";
    r.add(kError, "supply.overload", supply.describe(), msg.str());
  }
  return r;
}

}  // namespace strt::check
