// strt::exec -- loop mechanics: full coverage of the iteration space
// (also with concurrent top-level callers), result ordering, nesting,
// exception propagation, and thread-count control.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec.hpp"

namespace strt {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void TearDown() override { exec::set_thread_count(0); }
};

TEST_F(ExecTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exec::set_thread_count(threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      exec::parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " n " << n
                                     << " index " << i;
      }
    }
  }
}

TEST_F(ExecTest, ConcurrentTopLevelCallersEachCoverTheirRange) {
  // Two unrelated threads may each run a top-level loop at once; every
  // call claims from its own index counter.
  exec::set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::vector<std::atomic<int>>> hits(2);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < hits.size(); ++c) {
    callers.emplace_back([&hits, c] {
      exec::parallel_for(kN, [&hits, c](std::size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < hits.size(); ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST_F(ExecTest, MapPreservesIndexOrder) {
  exec::set_thread_count(4);
  const auto out =
      exec::parallel_map(500, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_F(ExecTest, MapMatchesSerialBitForBit) {
  auto work = [](std::size_t i) {
    // Index-dependent but schedule-independent pseudo-computation.
    std::uint64_t x = i * 0x9E3779B97F4A7C15ULL + 1;
    for (int r = 0; r < 50; ++r) x ^= (x << 13), x ^= (x >> 7);
    return x;
  };
  exec::set_thread_count(1);
  const auto serial = exec::parallel_map(300, work);
  exec::set_thread_count(4);
  const auto parallel = exec::parallel_map(300, work);
  EXPECT_EQ(serial, parallel);
}

TEST_F(ExecTest, NestedLoopsRunInline) {
  exec::set_thread_count(4);
  std::atomic<int> total{0};
  exec::parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(exec::inside_parallel_region());
    // Must not deadlock: the nested loop runs serially on this thread.
    exec::parallel_for(5, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 40);
  EXPECT_FALSE(exec::inside_parallel_region());
}

TEST_F(ExecTest, FirstExceptionPropagatesToCaller) {
  exec::set_thread_count(4);
  std::atomic<int> executed{0};
  try {
    exec::parallel_for(200, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("boom");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected the iteration's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Later loops are unaffected.
  std::atomic<int> after{0};
  exec::parallel_for(
      50, [&](std::size_t) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 50);
}

TEST_F(ExecTest, ThreadCountControl) {
  exec::set_thread_count(3);
  EXPECT_EQ(exec::thread_count(), 3u);
  exec::set_thread_count(1);
  EXPECT_EQ(exec::thread_count(), 1u);
  // 1 = fully serial: the loop runs on the calling thread.
  const auto caller = std::this_thread::get_id();
  exec::parallel_for(4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  exec::set_thread_count(0);  // reset to env/hardware default
  EXPECT_GE(exec::thread_count(), 1u);
}

TEST_F(ExecTest, ManySmallRunsBackToBack) {
  exec::set_thread_count(4);
  std::uint64_t sum = 0;
  for (int round = 0; round < 200; ++round) {
    const auto part = exec::parallel_map(
        7, [&](std::size_t i) { return static_cast<std::uint64_t>(i); });
    sum += std::accumulate(part.begin(), part.end(), std::uint64_t{0});
  }
  EXPECT_EQ(sum, 200u * 21u);
}

}  // namespace
}  // namespace strt
