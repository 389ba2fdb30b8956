#include "core/structural.hpp"

#include "base/assert.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

StructuralResult analyze(engine::Workspace& ws, const DrtTask& task,
                         const Staircase& service, Time window,
                         const StructuralOptions& opts) {
  const obs::Span span("structural");
  static obs::Counter& c_runs = obs::counter("structural.runs");
  c_runs.add(1);
  StructuralResult res;
  res.busy_window = window;

  // The task's shared exploration (or a private one when the options
  // call for it) viewed at the busy window: exactly explore_paths there.
  const Time limit = max(Time(0), window - Time(1));
  const engine::Workspace::PseudoInverse inverse = ws.inverse_of(service);
  const auto fold = [&](const Frontier& paths) {
    res.stats = paths.stats(limit);
    std::int32_t best = -1;
    res.vertex_delays.assign(task.vertex_count(), Time(0));
    {
      const obs::Span fold_span("inverse_sbf");
      paths.for_each_frontier(limit, [&](std::int32_t idx,
                                         const PathState& s) {
        const Time finish = inverse(s.work);
        STRT_ASSERT(!finish.is_unbounded(),
                    "service never delivers busy-window work");
        const Time d = finish > s.elapsed ? finish - s.elapsed : Time(0);
        if (d > res.delay || best < 0) {
          res.delay = d;
          best = idx;
        }
        auto& vd = res.vertex_delays[static_cast<std::size_t>(s.vertex)];
        vd = max(vd, d);
        const Work served = service.value(s.elapsed);
        if (s.work > served) res.backlog = max(res.backlog, s.work - served);
      });
    }
    if (opts.want_witness && best >= 0) {
      const obs::Span witness_span("witness");
      // The frontier state with the worst delay bounds the delay of its
      // *last* job; replay the path to report per-job numbers.
      for (const PathState& s : paths.path_to(best)) {
        const Time finish = inverse(s.work);
        WitnessJob job;
        job.vertex = task.vertex(s.vertex).name;
        job.release = s.elapsed;
        job.wcet = task.vertex(s.vertex).wcet;
        job.cumulative = s.work;
        job.latest_finish = finish;
        job.delay = finish > s.elapsed ? finish - s.elapsed : Time(0);
        res.witness.push_back(std::move(job));
      }
    }
  };
  ws.explore(task,
             ExploreOptions{.elapsed_limit = limit,
                            .prune = opts.prune,
                            .max_states = opts.max_states,
                            .progress_every = opts.progress_every,
                            .on_progress = opts.on_progress},
             fold);

  res.meets_vertex_deadlines = true;
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    if (res.vertex_delays[static_cast<std::size_t>(v)] >
        task.vertex(v).deadline) {
      res.meets_vertex_deadlines = false;
    }
  }
  return res;
}

}  // namespace

StructuralResult structural_delay(engine::Workspace& ws,
                                  const DrtTask& task, const Supply& supply,
                                  const StructuralOptions& opts) {
  const std::optional<Time> window = busy_window_length(ws, task, supply);
  if (!window) {
    StructuralResult overload;
    overload.delay = Time::unbounded();
    overload.backlog = Work::unbounded();
    overload.busy_window = Time::unbounded();
    return overload;
  }
  // The fold reads the supply only through inverse and value, which the
  // base-horizon curve answers exactly through its tail.
  const engine::CurvePtr service = ws.sbf(supply, base_horizon(supply));
  return analyze(ws, task, *service, *window, opts);
}

StructuralResult structural_delay_vs(engine::Workspace& ws,
                                     const DrtTask& task,
                                     const Staircase& service,
                                     const StructuralOptions& opts) {
  const engine::CurvePtr wl = ws.rbf(task, service.horizon());
  const Time window = busy_window_of_curves(*wl, service);
  return analyze(ws, task, service, window, opts);
}

}  // namespace strt
