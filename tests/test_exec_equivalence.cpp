// Determinism contract of sensitivity_analysis, the one analysis wired
// onto exec::parallel_map: an STRT_THREADS=N run must be bit-identical to
// the STRT_THREADS=1 run across a population of random tasks.

#include <gtest/gtest.h>

#include <vector>

#include "core/sensitivity.hpp"
#include "exec/exec.hpp"
#include "model/generator.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

constexpr int kTaskSets = 50;

DrtTask random_task(std::uint64_t seed) {
  Rng rng = Rng::split(seed, 0);
  DrtGenParams params;
  params.min_vertices = 2;
  params.max_vertices = 4;
  params.min_separation = Time(6);
  params.max_separation = Time(24);
  return std::move(random_drt_set(rng, 1, 0.3, params)[0].task);
}

TEST(ExecEquivalence, SensitivityBitIdentical) {
  const Supply supply = Supply::tdma(Time(5), Time(10));
  for (int t = 0; t < kTaskSets; ++t) {
    const DrtTask task = random_task(3000 + static_cast<std::uint64_t>(t));
    exec::set_thread_count(1);
    const SensitivityReport serial =
        sensitivity_analysis(test::workspace(), task, supply, {});
    exec::set_thread_count(4);
    const SensitivityReport parallel =
        sensitivity_analysis(test::workspace(), task, supply, {});
    exec::set_thread_count(0);
    EXPECT_EQ(serial.feasible, parallel.feasible);
    EXPECT_EQ(serial.wcet_slack, parallel.wcet_slack);
    EXPECT_EQ(serial.separation_slack, parallel.separation_slack);
  }
}

}  // namespace
}  // namespace strt
