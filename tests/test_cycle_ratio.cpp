#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "base/checked.hpp"
#include "graph/cycle_ratio.hpp"
#include "model/generator.hpp"
#include "model/gmf.hpp"
#include "model/sporadic.hpp"
#include "obs/counters.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

TEST(Utilization, SporadicIsWcetOverPeriod) {
  const SporadicTask sp{"s", Work(3), Time(7), Time(7)};
  const auto u = utilization(sp.to_drt());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(3, 7));
}

TEST(Utilization, GmfIsTotalRatioWhenUniform) {
  const GmfTask gmf("g", {GmfFrame{Work(2), Time(5), Time(5)},
                          GmfFrame{Work(3), Time(10), Time(10)},
                          GmfFrame{Work(1), Time(5), Time(5)}});
  const auto u = utilization(gmf.to_drt());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(6, 20));
}

TEST(Utilization, PicksTheWorstCycle) {
  // Two loops on A: a tight one via B (ratio (1+3)/(2+2)=1) and a loose
  // one via C (ratio (1+1)/(10+10)=0.1).
  DrtBuilder b("two");
  const VertexId a = b.add_vertex("A", Work(1), Time(1));
  const VertexId v = b.add_vertex("B", Work(3), Time(1));
  const VertexId c = b.add_vertex("C", Work(1), Time(1));
  b.add_edge(a, v, Time(2)).add_edge(v, a, Time(2));
  b.add_edge(a, c, Time(10)).add_edge(c, a, Time(10));
  const auto u = utilization(std::move(b).build());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1));
}

TEST(Utilization, AcyclicHasNone) {
  DrtBuilder b("dag");
  const VertexId a = b.add_vertex("A", Work(5), Time(1));
  const VertexId v = b.add_vertex("B", Work(5), Time(1));
  b.add_edge(a, v, Time(1));
  EXPECT_FALSE(utilization(std::move(b).build()).has_value());
}

TEST(Utilization, SelfLoopOfOne) {
  DrtBuilder b("unit");
  const VertexId a = b.add_vertex("A", Work(1), Time(1));
  b.add_edge(a, a, Time(1));
  const auto u = utilization(std::move(b).build());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1));
}

/// Brute-force max cycle ratio by enumerating simple cycles (DFS).
Rational brute_max_cycle_ratio(const DrtTask& task) {
  Rational best(0);
  std::vector<bool> on_path(task.vertex_count(), false);
  std::vector<VertexId> path;
  std::vector<Time> seps;
  bool found = false;
  std::function<void(VertexId)> dfs = [&](VertexId v) {
    for (std::int32_t ei : task.out_edges(v)) {
      const DrtEdge& e = task.edges()[static_cast<std::size_t>(ei)];
      if (on_path[static_cast<std::size_t>(e.to)]) {
        // Close the cycle at e.to if it is on the current path.
        auto it = std::find(path.begin(), path.end(), e.to);
        std::int64_t work = 0;
        std::int64_t sep = e.separation.count();
        for (auto p = it; p != path.end(); ++p) {
          work += task.vertex(*p).wcet.count();
          if (p + 1 != path.end()) {
            sep += seps[static_cast<std::size_t>(p - path.begin())].count();
          }
        }
        const Rational ratio(work, sep);
        if (!found || best < ratio) best = ratio;
        found = true;
        continue;
      }
      on_path[static_cast<std::size_t>(e.to)] = true;
      path.push_back(e.to);
      seps.push_back(e.separation);
      dfs(e.to);
      seps.pop_back();
      path.pop_back();
      on_path[static_cast<std::size_t>(e.to)] = false;
    }
  };
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    on_path[static_cast<std::size_t>(v)] = true;
    path.push_back(v);
    dfs(v);
    path.pop_back();
    on_path[static_cast<std::size_t>(v)] = false;
  }
  return best;
}

TEST(Utilization, MatchesBruteForceOnRandomGraphs) {
  Rng rng(606);
  for (int trial = 0; trial < 60; ++trial) {
    DrtGenParams params;
    params.min_vertices = 3;
    params.max_vertices = 8;
    params.min_separation = Time(1);
    params.max_separation = Time(12);
    params.chord_probability = 0.25;
    params.target_utilization = 0.5;
    const DrtTask task = random_drt(rng, params).task;
    const auto u = utilization(task);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, brute_max_cycle_ratio(task)) << "trial " << trial;
  }
}

TEST(Utilization, MatchesBruteForceOnSparseDigraphs) {
  // Arbitrary edge sets: several SCCs, transient vertices and self-loops,
  // none of which the generator's base cycle produces.
  Rng rng(1717);
  int cyclic = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto nv = static_cast<int>(rng.uniform_int(1, 8));
    DrtBuilder b("g");
    std::vector<VertexId> vs;
    for (int i = 0; i < nv; ++i) {
      vs.push_back(b.add_vertex("V" + std::to_string(i),
                                Work(rng.uniform_int(1, 20)), Time(1)));
    }
    for (int i = 0; i < nv; ++i) {
      for (int j = 0; j < nv; ++j) {
        if (rng.chance(0.2)) {
          b.add_edge(vs[static_cast<std::size_t>(i)],
                     vs[static_cast<std::size_t>(j)],
                     Time(rng.uniform_int(1, 30)));
        }
      }
    }
    const DrtTask task = std::move(b).build();
    const auto u = utilization(task);
    ASSERT_EQ(u.has_value(), task.is_cyclic()) << "trial " << trial;
    if (!u) continue;
    ++cyclic;
    EXPECT_EQ(*u, brute_max_cycle_ratio(task)) << "trial " << trial;
  }
  EXPECT_GT(cyclic, 100);
}

/// Utilization of the task and the number of probes it took (read off the
/// utilization.probes counter, with observability switched on meanwhile).
std::pair<std::optional<Rational>, std::uint64_t> probed_utilization(
    const DrtTask& task) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& probes = obs::counter("utilization.probes");
  const std::uint64_t before = probes.value();
  const auto u = utilization(task);
  const std::uint64_t taken = probes.value() - before;
  obs::set_enabled(was_enabled);
  return {u, taken};
}

DrtTask self_loop(std::int64_t wcet, std::int64_t separation) {
  DrtBuilder b("loop");
  const VertexId v = b.add_vertex("V", Work(wcet), Time(wcet));
  b.add_edge(v, v, Time(separation));
  return std::move(b).build();
}

TEST(Utilization, LongLoopTakesTwoProbes) {
  // A search probing one Stern-Brocot node at a time needs about 2^21
  // probes here.
  constexpr std::int64_t kSep = (std::int64_t{1} << 21) + 2;
  const auto [u, probes] = probed_utilization(self_loop(1, kSep));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1, kSep));
  EXPECT_LE(probes, 2u);
}

TEST(Utilization, HugeWcetLoopIsExact) {
  constexpr std::int64_t kWcet = std::int64_t{1} << 40;
  const auto [u, probes] = probed_utilization(self_loop(kWcet, 2 * kWcet));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1, 2));
  EXPECT_LE(probes, 2u);
}

TEST(Utilization, OverflowingProbeThrows) {
  // U = 2^62 / (2^62 + 1): the second probe's weights leave int64.
  constexpr std::int64_t kWcet = std::int64_t{1} << 62;
  EXPECT_THROW((void)utilization(self_loop(kWcet, kWcet + 1)),
               OverflowError);
}

TEST(Utilization, TwoComponentsTakeTheLargerRatio) {
  // SCC {A, B} of ratio (2+3)/(6+7) = 5/13 and SCC {C} of ratio 4/9,
  // joined one way by A -> C.  Either may be found first.
  for (const bool loose_first : {true, false}) {
    DrtBuilder b("two-sccs");
    const VertexId a = b.add_vertex("A", Work(2), Time(1));
    const VertexId v = b.add_vertex("B", Work(3), Time(1));
    const VertexId c = b.add_vertex("C", Work(4), Time(1));
    if (loose_first) b.add_edge(a, v, Time(6)).add_edge(v, a, Time(7));
    b.add_edge(c, c, Time(9));
    if (!loose_first) b.add_edge(a, v, Time(6)).add_edge(v, a, Time(7));
    b.add_edge(a, c, Time(1));
    const auto u = utilization(std::move(b).build());
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, Rational(4, 9));
  }
}

}  // namespace
}  // namespace strt
