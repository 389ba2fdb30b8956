#include <gtest/gtest.h>

#include <algorithm>

#include "core/audsley.hpp"
#include "core/fixed_priority.hpp"
#include "exec/exec.hpp"
#include "model/generator.hpp"
#include "model/sporadic.hpp"
#include "obs/counters.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

/// FP acceptance of a *given* order under the per-vertex verdict.
bool order_feasible(const std::vector<DrtTask>& tasks, const Supply& supply) {
  StructuralOptions opts;
  opts.want_witness = false;
  const FpResult res = fixed_priority_analysis(test::workspace(), tasks, supply, opts);
  if (res.overloaded) return false;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Time worst(0);
    // Reconstruct the verdict from the per-task structural delay vs each
    // vertex deadline via a fresh analysis (FpTaskResult keeps only the
    // max); simplest: delay <= min vertex deadline is sufficient here.
    Time min_d = Time::unbounded();
    for (const DrtVertex& v : tasks[i].vertices()) min_d = min(min_d, v.deadline);
    worst = res.tasks[i].structural_delay;
    if (worst > min_d) return false;
  }
  return true;
}

TEST(Audsley, FindsOrderForClassicSet) {
  std::vector<DrtTask> tasks;
  tasks.push_back(SporadicTask{"slow", Work(3), Time(20), Time(20)}.to_drt());
  tasks.push_back(SporadicTask{"fast", Work(1), Time(4), Time(4)}.to_drt());
  // Given in the "wrong" order (slow first); Audsley must still succeed
  // and must put the tight task higher.
  const AudsleyResult res =
      audsley_assignment(test::workspace(), tasks, Supply::dedicated(1));
  ASSERT_TRUE(res.feasible);
  ASSERT_EQ(res.order.size(), 2u);
  EXPECT_EQ(res.order[0], 1u);  // "fast" gets the higher priority
  EXPECT_EQ(res.order[1], 0u);
}

TEST(Audsley, StopsAtTheFirstFittingCandidate) {
  // Given lowest-urgency first, every level's first candidate fits, so
  // the scan makes one structural probe per level and tests_run counts
  // exactly the probes made.
  std::vector<DrtTask> tasks;
  tasks.push_back(SporadicTask{"slow", Work(3), Time(30), Time(30)}.to_drt());
  tasks.push_back(SporadicTask{"mid", Work(2), Time(10), Time(10)}.to_drt());
  tasks.push_back(SporadicTask{"fast", Work(1), Time(4), Time(4)}.to_drt());
  exec::set_thread_count(1);
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const AudsleyResult res =
      audsley_assignment(test::workspace(), tasks, Supply::dedicated(1));
  const std::uint64_t runs = obs::counter("structural.runs").value();
  obs::Registry::global().reset();
  obs::set_enabled(false);
  exec::set_thread_count(0);

  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.order, (std::vector<std::size_t>{2, 1, 0}));
  EXPECT_EQ(res.tests_run, 3u);
  EXPECT_EQ(runs, res.tests_run);
}

TEST(Audsley, InfeasibleOnOverload) {
  std::vector<DrtTask> tasks;
  tasks.push_back(SporadicTask{"a", Work(3), Time(4), Time(4)}.to_drt());
  tasks.push_back(SporadicTask{"b", Work(3), Time(4), Time(4)}.to_drt());
  const AudsleyResult res =
      audsley_assignment(test::workspace(), tasks, Supply::dedicated(1));
  EXPECT_FALSE(res.feasible);
}

TEST(Audsley, InfeasibleWhenNoTaskFitsAtTheBottom) {
  // Two tasks that each fit alone but neither survives the other's full
  // interference within its deadline.
  std::vector<DrtTask> tasks;
  tasks.push_back(SporadicTask{"a", Work(3), Time(8), Time(4)}.to_drt());
  tasks.push_back(SporadicTask{"b", Work(3), Time(8), Time(4)}.to_drt());
  const AudsleyResult res =
      audsley_assignment(test::workspace(), tasks, Supply::dedicated(1));
  // Lowest-priority candidate sees 3 + 3 = 6 > 4 in the worst case.
  EXPECT_FALSE(res.feasible);
}

TEST(Audsley, ResultOrderActuallyPasses) {
  Rng rng(434343);
  int found = 0;
  while (found < 5) {
    DrtGenParams params;
    params.min_vertices = 2;
    params.max_vertices = 4;
    params.min_separation = Time(10);
    params.max_separation = Time(40);
    params.deadline_factor = 1.0;
    auto gen = random_drt_set(rng, 3, 0.5, params);
    std::vector<DrtTask> tasks;
    for (auto& g : gen) tasks.push_back(std::move(g.task));
    const Supply supply = Supply::dedicated(1);
    const AudsleyResult res = audsley_assignment(test::workspace(), tasks, supply);
    if (!res.feasible) continue;
    ++found;
    // Apply the order and verify with the independent FP analysis (using
    // the conservative min-deadline criterion, implied by per-vertex).
    std::vector<DrtTask> ordered;
    for (const std::size_t i : res.order) ordered.push_back(tasks[i]);
    StructuralOptions opts;
    opts.want_witness = false;
    const FpResult fp = fixed_priority_analysis(test::workspace(), ordered, supply, opts);
    ASSERT_FALSE(fp.overloaded);
    // The per-vertex criterion implies each task's own jobs meet their
    // deadlines under the leftover; re-check with structural_delay_vs via
    // the library's own FP result consistency: delay bounds finite.
    for (const FpTaskResult& t : fp.tasks) {
      EXPECT_FALSE(t.structural_delay.is_unbounded());
    }
  }
}

TEST(Audsley, DominatesAnyFixedOrderOnRandomSets) {
  // Whenever some tested order is feasible, Audsley must also declare
  // feasibility (optimality of the bottom-up assignment).
  Rng rng(565656);
  int audsley_only = 0;
  for (int trial = 0; trial < 12; ++trial) {
    DrtGenParams params;
    params.min_vertices = 2;
    params.max_vertices = 3;
    params.min_separation = Time(8);
    params.max_separation = Time(30);
    params.deadline_factor = 1.0;
    auto gen = random_drt_set(rng, 3, 0.6, params);
    std::vector<DrtTask> tasks;
    for (auto& g : gen) tasks.push_back(std::move(g.task));
    const Supply supply = Supply::dedicated(1);

    const AudsleyResult aud = audsley_assignment(test::workspace(), tasks, supply);
    // Try all 6 permutations with the conservative min-deadline check.
    std::vector<std::size_t> perm{0, 1, 2};
    bool any_order = false;
    std::sort(perm.begin(), perm.end());
    do {
      std::vector<DrtTask> ordered;
      for (const std::size_t i : perm) ordered.push_back(tasks[i]);
      if (order_feasible(ordered, supply)) any_order = true;
    } while (std::next_permutation(perm.begin(), perm.end()));

    if (any_order) {
      EXPECT_TRUE(aud.feasible) << "trial " << trial;
    }
    if (aud.feasible && !any_order) ++audsley_only;
  }
  // Audsley with the per-vertex criterion may accept sets the coarse
  // min-deadline permutation check rejects; that is fine (it is the
  // sharper criterion).  Nothing to assert beyond the implication above.
  (void)audsley_only;
}

}  // namespace
}  // namespace strt
