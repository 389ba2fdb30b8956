#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>

#include "engine/workspace.hpp"
#include "graph/explore.hpp"
#include "model/generator.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

/// Brute-force: max released work per span over all paths (DFS).
std::map<std::int64_t, std::int64_t> brute_pareto(const DrtTask& task,
                                                  Time limit) {
  std::map<std::int64_t, std::int64_t> best;  // span -> max work
  std::function<void(VertexId, Time, Work)> dfs = [&](VertexId v, Time el,
                                                      Work w) {
    auto& slot = best[el.count()];
    slot = std::max(slot, w.count());
    for (std::int32_t ei : task.out_edges(v)) {
      const DrtEdge& e = task.edges()[static_cast<std::size_t>(ei)];
      const Time next = el + e.separation;
      if (next > limit) continue;
      dfs(e.to, next, w + task.vertex(e.to).wcet);
    }
  };
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    dfs(v, Time(0), task.vertex(v).wcet);
  }
  return best;
}

/// Max work over spans <= s (what the frontier's skyline represents).
std::int64_t prefix_max(const std::map<std::int64_t, std::int64_t>& m,
                        std::int64_t s) {
  std::int64_t best = 0;
  for (const auto& [span, w] : m) {
    if (span > s) break;
    best = std::max(best, w);
  }
  return best;
}

TEST(Explore, FrontierMatchesBruteForceSkyline) {
  const DrtTask task = test::small_task();
  const Time limit(40);
  const ExploreResult res =
      explore_paths(task, ExploreOptions{.elapsed_limit = limit});
  const auto brute = brute_pareto(task, limit);

  // Build skyline from the frontier: max work at span <= s.
  std::map<std::int64_t, std::int64_t> frontier_best;
  for (std::int32_t idx : res.frontier) {
    const PathState& st = res.arena[static_cast<std::size_t>(idx)];
    auto& slot = frontier_best[st.elapsed.count()];
    slot = std::max(slot, st.work.count());
  }
  for (std::int64_t s = 0; s <= limit.count(); ++s) {
    EXPECT_EQ(prefix_max(frontier_best, s), prefix_max(brute, s))
        << "span " << s;
  }
}

TEST(Explore, PruningDoesNotChangeTheSkyline) {
  Rng rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    DrtGenParams params;
    params.min_vertices = 3;
    params.max_vertices = 5;
    params.min_separation = Time(2);
    params.max_separation = Time(9);
    params.target_utilization = 0.4;
    const DrtTask task = random_drt(rng, params).task;
    const Time limit(30);
    const ExploreResult pruned =
        explore_paths(task, ExploreOptions{.elapsed_limit = limit});
    const ExploreResult full = explore_paths(
        task,
        ExploreOptions{.elapsed_limit = limit, .prune = false});
    auto skyline = [](const ExploreResult& r, Time lim) {
      std::map<std::int64_t, std::int64_t> m;
      for (std::int32_t idx : r.frontier) {
        const PathState& st = r.arena[static_cast<std::size_t>(idx)];
        auto& slot = m[st.elapsed.count()];
        slot = std::max(slot, st.work.count());
      }
      std::map<std::int64_t, std::int64_t> pm;
      std::int64_t best = 0;
      for (std::int64_t s = 0; s <= lim.count(); ++s) {
        const auto it = m.find(s);
        if (it != m.end()) best = std::max(best, it->second);
        pm[s] = best;
      }
      return pm;
    };
    EXPECT_EQ(skyline(pruned, limit), skyline(full, limit))
        << "trial " << trial;
    EXPECT_LE(pruned.stats.expanded, full.stats.expanded);
  }
}

TEST(Explore, StatsAreConsistent) {
  const DrtTask task = test::small_task();
  const ExploreResult res =
      explore_paths(task, ExploreOptions{.elapsed_limit = Time(60)});
  EXPECT_GT(res.stats.generated, 0u);
  EXPECT_GT(res.stats.expanded, 0u);
  EXPECT_EQ(res.stats.generated, res.arena.size() + res.stats.pruned);
  EXPECT_FALSE(res.frontier.empty());
}

TEST(Explore, PathReconstruction) {
  const DrtTask task = test::small_task();
  const ExploreResult res =
      explore_paths(task, ExploreOptions{.elapsed_limit = Time(30)});
  for (std::int32_t idx : res.frontier) {
    const auto path = res.path_to(idx);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front().elapsed, Time(0));
    EXPECT_EQ(path.front().work, task.vertex(path.front().vertex).wcet);
    // Each hop must correspond to an existing edge with matching
    // separation and accumulate work correctly.
    for (std::size_t i = 1; i < path.size(); ++i) {
      const Time gap = path[i].elapsed - path[i - 1].elapsed;
      bool edge_found = false;
      for (std::int32_t ei : task.out_edges(path[i - 1].vertex)) {
        const DrtEdge& e = task.edges()[static_cast<std::size_t>(ei)];
        if (e.to == path[i].vertex && e.separation == gap) {
          edge_found = true;
          break;
        }
      }
      EXPECT_TRUE(edge_found) << "hop " << i;
      EXPECT_EQ(path[i].work,
                path[i - 1].work + task.vertex(path[i].vertex).wcet);
    }
    const PathState& last = res.arena[static_cast<std::size_t>(idx)];
    EXPECT_EQ(path.back().work, last.work);
    EXPECT_EQ(path.back().elapsed, last.elapsed);
  }
}

TEST(Explore, ZeroLimitKeepsOnlySeeds) {
  const DrtTask task = test::small_task();
  const ExploreResult res =
      explore_paths(task, ExploreOptions{.elapsed_limit = Time(0)});
  for (std::int32_t idx : res.frontier) {
    EXPECT_EQ(res.arena[static_cast<std::size_t>(idx)].elapsed, Time(0));
  }
}

TEST(Explore, StateCapReturnsAbortedPartialResult) {
  const DrtTask task = test::small_task();
  const ExploreResult capped =
      explore_paths(task, ExploreOptions{.elapsed_limit = Time(500),
                                         .prune = false,
                                         .max_states = 100});
  EXPECT_TRUE(capped.stats.aborted);
  EXPECT_EQ(capped.arena.size(), 100u);
  // The explored prefix is sound and usable: its stats stay arithmetic-
  // consistent and the frontier is the prefix's own.
  EXPECT_EQ(capped.stats.generated,
            capped.arena.size() + capped.stats.pruned);
  EXPECT_FALSE(capped.frontier.empty());

  // The same exploration with pruning stays polynomial, never reaches
  // the cap, and is not aborted.
  const ExploreResult pruned =
      explore_paths(task, ExploreOptions{.elapsed_limit = Time(500)});
  EXPECT_FALSE(pruned.stats.aborted);
}

/// Field-by-field equality of two exploration results.
void expect_same(const ExploreResult& got, const ExploreResult& want,
                 const std::string& what) {
  ASSERT_EQ(got.arena.size(), want.arena.size()) << what;
  for (std::size_t i = 0; i < want.arena.size(); ++i) {
    const PathState& g = got.arena[i];
    const PathState& w = want.arena[i];
    EXPECT_EQ(g.vertex, w.vertex) << what << " arena " << i;
    EXPECT_EQ(g.elapsed, w.elapsed) << what << " arena " << i;
    EXPECT_EQ(g.work, w.work) << what << " arena " << i;
    EXPECT_EQ(g.parent, w.parent) << what << " arena " << i;
  }
  EXPECT_EQ(got.frontier, want.frontier) << what;
  EXPECT_EQ(got.stats.generated, want.stats.generated) << what;
  EXPECT_EQ(got.stats.expanded, want.stats.expanded) << what;
  EXPECT_EQ(got.stats.pruned, want.stats.pruned) << what;
  EXPECT_EQ(got.stats.aborted, want.stats.aborted) << what;
}

DrtTask generated_task(Rng& rng, std::size_t max_vertices, Time max_sep) {
  DrtGenParams params;
  params.min_vertices = 2;
  params.max_vertices = max_vertices;
  params.min_separation = Time(2);
  params.max_separation = max_sep;
  params.chord_probability = 0.4;
  params.target_utilization = 0.6;
  return random_drt(rng, params).task;
}

/// Extends a frontier over a random ascending limit sequence; after each
/// step, views at the limit and at an earlier point must equal a fresh
/// explore_paths there.
void check_prefix_consistency(const DrtTask& task, bool prune,
                              std::int64_t max_step, Rng& rng,
                              const std::string& what) {
  Frontier f(task, ExploreOptions{.prune = prune});
  std::int64_t limit = 0;
  for (int step = 0; step < 6; ++step) {
    limit += rng.uniform_int(0, max_step);
    f.extend(Time(limit));
    ASSERT_EQ(f.limit(), Time(limit)) << what;
    for (const std::int64_t q : {limit, rng.uniform_int(0, limit)}) {
      const ExploreOptions fresh{.elapsed_limit = Time(q), .prune = prune};
      expect_same(f.view(Time(q)), explore_paths(task, fresh),
                  what + " step " + std::to_string(step) + " view " +
                      std::to_string(q));
    }
  }
}

TEST(Frontier, ExtendedViewsEqualFreshExplorations) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const DrtTask task = generated_task(rng, 8, Time(25));
    check_prefix_consistency(task, /*prune=*/true, 90, rng,
                             "trial " + std::to_string(trial));
  }
}

TEST(Frontier, UnprunedViewsEqualFreshExplorations) {
  Rng rng(977);
  for (int trial = 0; trial < 15; ++trial) {
    const DrtTask task = generated_task(rng, 4, Time(9));
    check_prefix_consistency(task, /*prune=*/false, 8, rng,
                             "unpruned trial " + std::to_string(trial));
  }
}

TEST(Frontier, WorkspaceExplorationEqualsFreshOneInAnyQueryOrder) {
  // Through the shared frontier, in descending, ascending and repeated
  // limit order: every read is explore_paths at that limit.
  Rng rng(31337);
  const DrtTask task = generated_task(rng, 8, Time(25));
  engine::Workspace ws(true);
  for (const std::int64_t q : {120, 40, 300, 300, 7, 0, 180}) {
    ExploreResult got;
    ws.explore(task, ExploreOptions{.elapsed_limit = Time(q)},
               [&](const Frontier& f) { got = f.view(Time(q)); });
    expect_same(got,
                explore_paths(task, ExploreOptions{.elapsed_limit = Time(q)}),
                "limit " + std::to_string(q));
  }
  EXPECT_GT(ws.stats().bytes, 0u);  // the frontier is memoized
}

TEST(Frontier, CappedAndCancelledExplorationsLeaveNoMemoEntry) {
  const DrtTask task = test::small_task();
  engine::Workspace ws(true);
  const ExploreOptions capped{.elapsed_limit = Time(500),
                              .prune = true,
                              .max_states = 20};
  ExploreOptions cancelled{.elapsed_limit = Time(500), .progress_every = 5};
  cancelled.on_progress = [](const ExploreProgress&) { return false; };
  for (const ExploreOptions& opts : {capped, cancelled}) {
    ExploreResult got;
    ws.explore(task, opts, [&](const Frontier& f) {
      got = f.view(opts.elapsed_limit);
    });
    EXPECT_TRUE(got.stats.aborted);
    expect_same(got, explore_paths(task, opts), "aborted run");
  }
  // Neither run touched the memo: no frontier bytes were ever counted.
  EXPECT_EQ(ws.stats().bytes, 0u);
}

TEST(Explore, NegativeLimitRejected) {
  const DrtTask task = test::small_task();
  EXPECT_THROW(
      (void)explore_paths(task, ExploreOptions{.elapsed_limit = Time(-1)}),
      std::invalid_argument);
}

}  // namespace
}  // namespace strt
