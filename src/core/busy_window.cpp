#include "core/busy_window.hpp"

#include <string>
#include <vector>

#include "base/assert.hpp"
#include "curves/builders.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/explore.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

HorizonGuardError::HorizonGuardError(std::string_view analysis)
    : std::runtime_error(
          std::string(analysis) +
          ": horizon guard exceeded; utilization is too close to the "
          "supply rate for a tractable finitary analysis") {}

Time next_horizon(Time horizon, std::string_view analysis,
                  std::int64_t guard) {
  if (horizon.count() > guard) throw HorizonGuardError(analysis);
  return horizon * 2;
}

Time base_horizon(const Supply& supply) {
  return max(supply.min_horizon(), Time(64));
}

Time rbf_catch_up(engine::Workspace& ws,
                  std::span<const DrtTask* const> tasks,
                  const Supply& supply, std::string_view analysis,
                  std::int64_t guard) {
  STRT_REQUIRE(!tasks.empty(), "the busy window needs a task");
  const obs::Span span("busy_window");
  static obs::Counter& c_steps = obs::counter("busy_window.steps");
  const std::size_t n = tasks.size();
  const Time h0 = base_horizon(supply);
  // Read everywhere through its exact tail: inverse and step counts.
  const engine::CurvePtr sv = ws.sbf(supply, h0);

  // With caching off, private resumable frontiers kept across the steps.
  std::vector<Frontier> own;
  if (!ws.caching()) {
    own.reserve(n);
    for (const DrtTask* t : tasks) own.emplace_back(*t, ExploreOptions{});
  }
  // rbfs[i] holds rbf_i's breakpoints through the last step's horizon;
  // a step extends task i's exploration to h - 1 and appends the rest.
  std::vector<SegmentStore> rbfs(n);
  const auto read = [&](std::size_t i, Time h, const Frontier& paths) {
    if (!paths.aborted()) {
      append_rbf(paths, h, rbfs[i]);
      return;
    }
    // An aborted exploration's rbf is a lower bound read off its
    // frontier, not a prefix of the kept one: take it whole.
    const Staircase cut = rbf_of(paths, h);
    rbfs[i].clear();
    for (std::size_t k = 0; k < cut.breakpoint_count(); ++k) {
      rbfs[i].append(cut.times()[k], cut.values()[k]);
    }
  };

  // The analyses materialize the supply on L: a window whose supply
  // curve would pass the builders' step cap is refused here, before any
  // exploration out to it.
  const auto materializable = [&](Time t) {
    if (sv->steps_through(t) > curve::kMaxCurveSteps) {
      throw curve::CurveSizeError(supply.describe());
    }
  };

  // The sweep: `sum` = sum_i rbf_i on [from, next breakpoint), and
  // `seen[i]` counts the breakpoints of rbf_i already folded into it.
  std::vector<std::size_t> seen(n, 0);
  std::vector<Work> level(n, Work(0));
  Work sum(0);
  Time from(1);
  Time served_at(0);  // sv->inverse(sum)
  for (Time h = h0;;) {
    c_steps.add(1);
    for (std::size_t i = 0; i < n; ++i) {
      if (!own.empty()) {
        own[i].extend(h - Time(1));
        read(i, h, own[i]);
      } else {
        ws.explore(*tasks[i], ExploreOptions{.elapsed_limit = h - Time(1)},
                   [&](const Frontier& paths) { read(i, h, paths); });
      }
    }
    for (;;) {
      Time next = Time::unbounded();
      for (std::size_t i = 0; i < n; ++i) {
        if (seen[i] < rbfs[i].size()) next = min(next, rbfs[i].time(seen[i]));
      }
      if (next > from) {
        const Time candidate = max(from, served_at);
        if (candidate < next && candidate <= h) {
          materializable(candidate);
          return candidate;
        }
        if (next.is_unbounded()) break;  // sum is constant through h
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (seen[i] < rbfs[i].size() && rbfs[i].time(seen[i]) == next) {
          const Work v = rbfs[i].value(seen[i]++);
          sum = sum - level[i] + v;
          level[i] = v;
        }
      }
      served_at = sv->inverse(sum);
      from = max(from, next);
    }
    // Not closed on [1, h], so L > h; and the summed rbf never falls, so
    // L >= served_at (> h) as well.  A step may jump that far without
    // passing L, and the search gives up as soon as that bound does.
    materializable(served_at);
    if (served_at.count() > guard) throw HorizonGuardError(analysis);
    h = max(h + max(Time(64), Time(h.count() / 16)), served_at);
  }
}

Time rbf_catch_up(engine::Workspace& ws, std::span<const DrtTask> tasks,
                  const Supply& supply, std::string_view analysis,
                  std::int64_t guard) {
  std::vector<const DrtTask*> all;
  all.reserve(tasks.size());
  for (const DrtTask& t : tasks) all.push_back(&t);
  return rbf_catch_up(ws, all, supply, analysis, guard);
}

std::optional<Time> busy_window_length(engine::Workspace& ws,
                                       const DrtTask& task,
                                       const Supply& supply) {
  const std::optional<Rational> util = ws.utilization(task);
  if (util && *util >= supply.long_run_rate()) return std::nullopt;
  const DrtTask* const one[] = {&task};
  return rbf_catch_up(ws, one, supply, "busy_window");
}

std::optional<BusyWindow> busy_window(engine::Workspace& ws,
                                      const DrtTask& task,
                                      const Supply& supply) {
  const std::optional<Time> L = busy_window_length(ws, task, supply);
  if (!L) return std::nullopt;
  const Time horizon = max(*L, base_horizon(supply));
  return BusyWindow{*L, *ws.rbf(task, horizon), *ws.sbf(supply, horizon)};
}

Time busy_window_of_curves(const Staircase& wl, const Staircase& sv) {
  const std::optional<Time> L = first_catch_up(wl, sv);
  STRT_REQUIRE(L.has_value(),
               "no catch-up point within the materialized horizon; extend "
               "the curves");
  return *L;
}

}  // namespace strt
