// Unit tests of the strt::engine layer: task/curve fingerprints, the
// hash-consing intern table, workload-curve memoization with
// horizon-extension reuse, derived-op caching, pseudo-inverse memos,
// first-insert-wins under racing threads, and the caching-off
// pass-through mode.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "check/diagnostics.hpp"
#include "core/structural.hpp"
#include "curves/builders.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "engine/fingerprint.hpp"
#include "engine/workspace.hpp"
#include "graph/drt.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "race/lockdep.hpp"
#include "resource/supply.hpp"

namespace strt {
namespace {

DrtTask demo_task(const std::string& name, Work burst_wcet) {
  DrtBuilder b(name);
  b.add_vertex("B", burst_wcet, Time(60));
  b.add_vertex("T", Work(1), Time(20));
  b.add_edge(0, 1, Time(9));
  b.add_edge(1, 1, Time(9));
  b.add_edge(1, 0, Time(70));
  return std::move(b).build();
}

TEST(EngineFingerprint, TaskFingerprintIsStructuralAndNameBlind) {
  const DrtTask a = demo_task("alpha", Work(8));
  const DrtTask b = demo_task("beta", Work(8));
  const DrtTask c = demo_task("alpha", Work(9));
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // names don't matter
  EXPECT_NE(a.fingerprint(), c.fingerprint());  // wcet does
}

TEST(EngineFingerprint, CurveFingerprintTracksContent) {
  const DrtTask t = demo_task("t", Work(8));
  const Staircase c1 = rbf(t, Time(200));
  const Staircase c2 = rbf(t, Time(200));
  const Staircase c3 = rbf(t, Time(300));
  EXPECT_EQ(engine::fingerprint(c1), engine::fingerprint(c2));
  EXPECT_NE(engine::fingerprint(c1), engine::fingerprint(c3));
}

TEST(EngineWorkspace, InternDeduplicates) {
  engine::Workspace ws(true);
  const DrtTask t = demo_task("t", Work(8));
  const engine::CurvePtr a = ws.intern(rbf(t, Time(200)));
  const engine::CurvePtr b = ws.intern(rbf(t, Time(200)));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GT(ws.stats().bytes, 0u);
}

TEST(EngineWorkspace, RbfMemoizedWithHorizonExtensionReuse) {
  engine::Workspace ws(true);
  const DrtTask t = demo_task("t", Work(8));

  const engine::CurvePtr big = ws.rbf(t, Time(512));
  EXPECT_EQ(ws.stats().hits, 0u);

  // Exact repeat: a hit, same canonical instance.
  const engine::CurvePtr again = ws.rbf(t, Time(512));
  EXPECT_EQ(big.get(), again.get());
  EXPECT_GE(ws.stats().hits, 1u);

  // Smaller horizon: answered by truncating the cached curve, and the
  // truncation must be bit-identical to a fresh computation.
  const engine::CurvePtr small = ws.rbf(t, Time(100));
  EXPECT_EQ(*small, rbf(t, Time(100)));
  EXPECT_GE(ws.stats().hits, 2u);
}

TEST(EngineWorkspace, DbfMatchesFreeFunction) {
  engine::Workspace ws(true);
  // Frame-separated variant: every deadline within the outgoing
  // separations, so the exact dbf staircase is defined.
  DrtBuilder b("frame");
  b.add_vertex("B", Work(4), Time(9));
  b.add_vertex("T", Work(1), Time(9));
  b.add_edge(0, 1, Time(9));
  b.add_edge(1, 1, Time(9));
  b.add_edge(1, 0, Time(70));
  const DrtTask t = std::move(b).build();
  ASSERT_TRUE(t.has_frame_separation());
  EXPECT_EQ(*ws.dbf(t, Time(400)), dbf(t, Time(400)));
  EXPECT_EQ(*ws.dbf(t, Time(150)), dbf(t, Time(150)));
}

TEST(EngineWorkspace, SbfMemoizedByDescriptionAndHorizon) {
  engine::Workspace ws(true);
  const Supply s = Supply::tdma(Time(3), Time(8));
  const engine::CurvePtr a = ws.sbf(s, Time(200));
  const engine::CurvePtr b = ws.sbf(s, Time(200));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(*a, s.sbf(Time(200)));
  // Different horizon is a fresh entry (tails forbid truncation reuse).
  EXPECT_EQ(*ws.sbf(s, Time(100)), s.sbf(Time(100)));
}

TEST(EngineWorkspace, DerivedOpsMatchFreeFunctions) {
  engine::Workspace ws(true);
  const DrtTask t1 = demo_task("t1", Work(8));
  const DrtTask t2 = demo_task("t2", Work(3));
  const Staircase f = rbf(t1, Time(300));
  const Staircase g = rbf(t2, Time(300));
  const Staircase beta = Supply::tdma(Time(5), Time(10)).sbf(Time(300));

  EXPECT_EQ(*ws.pointwise_add(f, g), pointwise_add(f, g));
  EXPECT_EQ(*ws.minplus_conv(f, g), minplus_conv(f, g));
  EXPECT_EQ(*ws.leftover_service(beta, g), leftover_service(beta, g));
  EXPECT_EQ(*ws.concave_hull_staircase(f), concave_hull_staircase(f));

  // Second identical query is served from the derived-op table.
  const std::uint64_t hits = ws.stats().hits;
  EXPECT_EQ(*ws.pointwise_add(f, g), pointwise_add(f, g));
  EXPECT_GT(ws.stats().hits, hits);
}

TEST(EngineWorkspace, PseudoInverseMatchesDirectLookups) {
  const Staircase beta = Supply::tdma(Time(4), Time(9)).sbf(Time(300));
  for (const bool caching : {true, false}) {
    engine::Workspace ws(caching);
    const engine::Workspace::PseudoInverse inv = ws.inverse_of(beta);
    for (std::int64_t w = 0; w <= beta.value(Time(300)).count(); ++w) {
      EXPECT_EQ(inv(Work(w)), beta.inverse(Work(w)));
    }
    // Repeat pass: memoized answers must not drift.
    for (std::int64_t w = 0; w <= beta.value(Time(300)).count(); ++w) {
      EXPECT_EQ(inv(Work(w)), beta.inverse(Work(w)));
    }
  }
}

TEST(EngineWorkspace, CachingOffIsPassThrough) {
  engine::Workspace ws(false);
  EXPECT_FALSE(ws.caching());
  const DrtTask t = demo_task("t", Work(8));
  const engine::CurvePtr a = ws.rbf(t, Time(256));
  const engine::CurvePtr b = ws.rbf(t, Time(256));
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, rbf(t, Time(256)));
  EXPECT_EQ(ws.stats().hits, 0u);
  EXPECT_GE(ws.stats().misses, 2u);
}

TEST(EngineWorkspace, StatsCountHitsAndMisses) {
  engine::Workspace ws(true);
  const DrtTask t = demo_task("t", Work(8));
  (void)ws.rbf(t, Time(128));
  const engine::WorkspaceStats after_miss = ws.stats();
  EXPECT_EQ(after_miss.hits, 0u);
  EXPECT_EQ(after_miss.misses, 1u);
  (void)ws.rbf(t, Time(128));
  const engine::WorkspaceStats after_hit = ws.stats();
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_EQ(after_hit.misses, 1u);
}

TEST(EngineWorkspace, RacingQueriesShareOneResult) {
  // Every thread asks for the same sbf, derived and validate keys at
  // once: whoever inserts first wins, and every thread gets that very
  // object.  Each query counts exactly one hit or one miss.
  engine::Workspace ws(true);
  const DrtTask t = demo_task("t", Work(8));
  const Supply s = Supply::tdma(Time(3), Time(8));
  const Staircase f = rbf(t, Time(200));
  const Staircase g = rbf(demo_task("g", Work(3)), Time(200));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  struct Seen {
    std::vector<const Staircase*> sbf, sum;
    std::vector<const check::CheckResult*> lint;
  };
  std::vector<Seen> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        seen[i].sbf.push_back(ws.sbf(s, Time(200)).get());
        seen[i].sum.push_back(ws.pointwise_add(f, g).get());
        seen[i].lint.push_back(ws.validate(t).get());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const Seen& first = seen.front();
  for (const Seen& each : seen) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(each.sbf[r], first.sbf.front());
      EXPECT_EQ(each.sum[r], first.sum.front());
      EXPECT_EQ(each.lint[r], first.lint.front());
    }
  }
  EXPECT_EQ(*first.sbf.front(), s.sbf(Time(200)));
  EXPECT_EQ(*first.sum.front(), pointwise_add(f, g));
  const engine::WorkspaceStats stats = ws.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * 3);
}

/// A frame-separated task, so dbf is defined.
DrtTask frame_task() {
  DrtBuilder b("frame");
  b.add_vertex("B", Work(4), Time(9));
  b.add_vertex("T", Work(1), Time(9));
  b.add_vertex("C", Work(2), Time(12));
  b.add_edge(0, 1, Time(9));
  b.add_edge(1, 1, Time(9));
  b.add_edge(1, 2, Time(13));
  b.add_edge(2, 0, Time(40));
  b.add_edge(1, 0, Time(70));
  return std::move(b).build();
}

void expect_same_structural(const StructuralResult& got,
                            const StructuralResult& want) {
  EXPECT_EQ(got.delay, want.delay);
  EXPECT_EQ(got.backlog, want.backlog);
  EXPECT_EQ(got.busy_window, want.busy_window);
  EXPECT_EQ(got.stats.generated, want.stats.generated);
  EXPECT_EQ(got.stats.expanded, want.stats.expanded);
  EXPECT_EQ(got.stats.pruned, want.stats.pruned);
  EXPECT_EQ(got.vertex_delays, want.vertex_delays);
  EXPECT_EQ(got.meets_vertex_deadlines, want.meets_vertex_deadlines);
  ASSERT_EQ(got.witness.size(), want.witness.size());
  for (std::size_t i = 0; i < want.witness.size(); ++i) {
    EXPECT_EQ(got.witness[i].vertex, want.witness[i].vertex);
    EXPECT_EQ(got.witness[i].release, want.witness[i].release);
    EXPECT_EQ(got.witness[i].cumulative, want.witness[i].cumulative);
    EXPECT_EQ(got.witness[i].latest_finish, want.witness[i].latest_finish);
  }
}

TEST(EngineWorkspace, ConcurrentQueriesShareOneExploration) {
  // Four threads interleave rbf, dbf, structural and utilization queries
  // on one task at different horizons.  Every answer equals the serial
  // cache-off answer, and the task is explored from scratch exactly once:
  // every other horizon resumes the one shared frontier.
  const DrtTask t = frame_task();
  const std::vector<Time> horizons{Time(100), Time(700), Time(250),
                                   Time(1600), Time(400), Time(60)};
  std::vector<Staircase> services;
  for (const Time h : horizons) {
    services.push_back(Supply::tdma(Time(3), Time(5)).sbf(h));
  }

  struct Answers {
    std::vector<Staircase> rbf, dbf;
    std::vector<StructuralResult> structural;
  };
  Answers want;
  {
    engine::Workspace off(false);
    for (std::size_t k = 0; k < horizons.size(); ++k) {
      want.rbf.push_back(*off.rbf(t, horizons[k]));
      want.dbf.push_back(*off.dbf(t, horizons[k]));
      want.structural.push_back(structural_delay_vs(off, t, services[k]));
    }
  }
  const std::optional<Rational> want_util = utilization(t);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  engine::Workspace ws(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 6;
  std::vector<Answers> got(kThreads);
  std::vector<std::vector<std::optional<Rational>>> utils(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t k = (i + r) % horizons.size();
        // Rotate the query kind too, so the first touch of the frontier
        // is a different kind on each thread.
        for (std::size_t q = 0; q < 4; ++q) {
          switch ((i + q) % 4) {
            case 0:
              got[i].rbf.push_back(*ws.rbf(t, horizons[k]));
              break;
            case 1:
              got[i].dbf.push_back(*ws.dbf(t, horizons[k]));
              break;
            case 2:
              got[i].structural.push_back(
                  structural_delay_vs(ws, t, services[k]));
              break;
            default:
              utils[i].push_back(ws.utilization(t));
              break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::uint64_t runs = obs::counter("explore.runs").value();
  obs::Registry::global().reset();
  obs::set_enabled(false);

  for (std::size_t i = 0; i < kThreads; ++i) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t k = (i + r) % horizons.size();
      EXPECT_EQ(got[i].rbf[r], want.rbf[k]) << "thread " << i;
      EXPECT_EQ(got[i].dbf[r], want.dbf[k]) << "thread " << i;
      expect_same_structural(got[i].structural[r], want.structural[k]);
      EXPECT_EQ(utils[i][r], want_util);
    }
  }
  EXPECT_EQ(runs, 1u);
  // In a -DSTRT_LOCKDEP=ON build every acquisition above was recorded:
  // the frontier mutex must close no lock-order cycle (elsewhere lockdep
  // records nothing and this holds trivially).
  EXPECT_TRUE(race::lockdep_cycles().empty()) << race::lockdep_report();
}

}  // namespace
}  // namespace strt
