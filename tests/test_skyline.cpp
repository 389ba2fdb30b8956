// The explorer's flat containers against their predecessors as oracles:
// FlatSkyline vs the std::map skyline shipped before the hot-path
// overhaul, BucketQueue vs a std::priority_queue with the explorer's
// (elapsed asc, work desc) comparator.

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "graph/skyline.hpp"

namespace strt {
namespace {

/// The pre-overhaul map-backed skyline, kept verbatim as the oracle.
class MapSkyline {
 public:
  bool insert(Time t, Work w, std::int32_t idx) {
    auto it = entries_.upper_bound(t);
    if (it != entries_.begin()) {
      const auto& prev = *std::prev(it);
      if (prev.second.first >= w) return false;  // dominated
    }
    while (it != entries_.end() && it->second.first <= w) {
      it = entries_.erase(it);
    }
    entries_.insert_or_assign(t, std::make_pair(w, idx));
    return true;
  }

  [[nodiscard]] bool is_live(Time t, std::int32_t idx) const {
    auto it = entries_.find(t);
    return it != entries_.end() && it->second.second == idx;
  }

  [[nodiscard]] std::vector<std::tuple<std::int64_t, std::int64_t,
                                       std::int32_t>>
  dump() const {
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int32_t>> out;
    for (const auto& [t, wi] : entries_) {
      out.emplace_back(t.count(), wi.first.count(), wi.second);
    }
    return out;
  }

 private:
  std::map<Time, std::pair<Work, std::int32_t>> entries_;
};

std::vector<std::tuple<std::int64_t, std::int64_t, std::int32_t>> dump(
    const FlatSkyline& s) {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int32_t>> out;
  s.for_each([&](Time t, Work w, std::int32_t idx) {
    out.emplace_back(t.count(), w.count(), idx);
  });
  return out;
}

TEST(FlatSkyline, HandInsertEdgeCases) {
  FlatSkyline s;
  EXPECT_TRUE(s.insert(Time(10), Work(5), 0));
  // Dominated: same time, less-or-equal work.
  EXPECT_FALSE(s.insert(Time(10), Work(5), 1));
  EXPECT_FALSE(s.insert(Time(10), Work(4), 2));
  // Dominated: later with no extra work.
  EXPECT_FALSE(s.insert(Time(15), Work(5), 3));
  // Improvement at the same time replaces the entry.
  EXPECT_TRUE(s.insert(Time(10), Work(7), 4));
  EXPECT_FALSE(s.is_live(Time(10), 0));
  EXPECT_TRUE(s.is_live(Time(10), 4));
  // Earlier with at least as much work evicts the later entry.
  EXPECT_TRUE(s.insert(Time(4), Work(7), 5));
  EXPECT_FALSE(s.is_live(Time(10), 4));
  EXPECT_EQ(s.size(), 1u);
  // Strictly more work later on coexists.
  EXPECT_TRUE(s.insert(Time(12), Work(9), 6));
  EXPECT_EQ(s.size(), 2u);
  const auto entries = dump(s);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], std::make_tuple(std::int64_t{4}, std::int64_t{7}, 5));
  EXPECT_EQ(entries[1], std::make_tuple(std::int64_t{12}, std::int64_t{9}, 6));
}

TEST(FlatSkyline, EvictsARangeOfDominatedEntries) {
  FlatSkyline s;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(s.insert(Time(10 + i), Work(1 + i), i));
  }
  // (12, 8) dominates entries at times 12..17 (work 3..8): one bulk
  // eviction of a contiguous range.
  EXPECT_TRUE(s.insert(Time(12), Work(8), 99));
  const auto entries = dump(s);
  ASSERT_EQ(entries.size(), 5u);  // times 10, 11, then 12(new), 18, 19
  EXPECT_EQ(std::get<0>(entries[2]), 12);
  EXPECT_EQ(std::get<2>(entries[2]), 99);
  EXPECT_EQ(std::get<0>(entries[3]), 18);
}

TEST(FlatSkyline, MatchesMapOracleOnRandomStreams) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    FlatSkyline flat;
    MapSkyline oracle;
    const int ops = static_cast<int>(rng.uniform_int(1, 120));
    for (std::int32_t op = 0; op < ops; ++op) {
      const Time t(rng.uniform_int(0, 25));
      const Work w(rng.uniform_int(0, 25));
      EXPECT_EQ(flat.insert(t, w, op), oracle.insert(t, w, op))
          << "trial " << trial << " op " << op;
      EXPECT_EQ(dump(flat), oracle.dump()) << "trial " << trial;
      // Liveness agrees on a random probe as well.
      const Time pt(rng.uniform_int(0, 25));
      EXPECT_EQ(flat.is_live(pt, op), oracle.is_live(pt, op));
    }
  }
}

TEST(FlatSkyline, InvariantBothKeysStrictlyIncrease) {
  Rng rng(7);
  FlatSkyline s;
  for (std::int32_t op = 0; op < 500; ++op) {
    s.insert(Time(rng.uniform_int(0, 60)), Work(rng.uniform_int(0, 60)), op);
    std::int64_t last_t = -1;
    std::int64_t last_w = -1;
    s.for_each([&](Time t, Work w, std::int32_t) {
      EXPECT_GT(t.count(), last_t);
      EXPECT_GT(w.count(), last_w);
      last_t = t.count();
      last_w = w.count();
    });
  }
}

TEST(BucketQueue, MatchesPriorityQueueOrder) {
  // Replays a monotone push schedule (pushes never at or below the pop
  // cursor, as in the explorer) against the old comparator's heap.
  struct QItem {
    Time elapsed;
    Work work;
    std::int32_t idx;
  };
  auto cmp = [](const QItem& a, const QItem& b) {
    if (a.elapsed != b.elapsed) return a.elapsed > b.elapsed;
    if (a.work != b.work) return a.work < b.work;
    return a.idx > b.idx;  // tie-break matching BucketQueue (idx asc)
  };
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    BucketQueue q(Time(200));
    std::priority_queue<QItem, std::vector<QItem>, decltype(cmp)> heap(cmp);
    std::int32_t next_idx = 0;
    // Seed a burst at elapsed 0, then alternate pops with child pushes
    // strictly above the popped elapsed.
    for (int i = 0; i < 5; ++i) {
      const Work w(rng.uniform_int(0, 9));
      q.push(Time(0), w, next_idx);
      heap.push(QItem{Time(0), w, next_idx});
      ++next_idx;
    }
    while (q.size() != 0) {
      ASSERT_FALSE(heap.empty());
      Time elapsed(0);
      BucketQueue::Item item{};
      ASSERT_TRUE(q.pop(elapsed, item));
      const QItem expect = heap.top();
      heap.pop();
      EXPECT_EQ(elapsed, expect.elapsed) << "trial " << trial;
      EXPECT_EQ(item.work, expect.work) << "trial " << trial;
      EXPECT_EQ(item.idx, expect.idx) << "trial " << trial;
      // Children land strictly later, while the span budget lasts.
      const std::int64_t kids = rng.uniform_int(0, 2);
      for (std::int64_t k = 0; k < kids; ++k) {
        const Time child = elapsed + Time(rng.uniform_int(1, 30));
        if (child > Time(200)) continue;
        const Work w(rng.uniform_int(0, 9));
        q.push(child, w, next_idx);
        heap.push(QItem{child, w, next_idx});
        ++next_idx;
      }
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(BucketQueue, ResumedBoundsKeepTheOrderAndTallies) {
  // The resumable explorer's use: pops up to a growing bound, the queue
  // parked in between, pushes up to `reach` past the cursor (past the
  // bound too), and tallies of unqueued events.  The pop order must match
  // one unbounded heap run, and tallied_through() must count every tally
  // at or below its tick.  Scale 1 keeps the buckets in the ring; the
  // large scale spreads the ticks past kDenseLimit, into the map.
  struct QItem {
    Time elapsed;
    Work work;
    std::int32_t idx;
  };
  auto cmp = [](const QItem& a, const QItem& b) {
    if (a.elapsed != b.elapsed) return a.elapsed > b.elapsed;
    if (a.work != b.work) return a.work < b.work;
    return a.idx > b.idx;
  };
  Rng rng(2024);
  for (const std::int64_t scale : {std::int64_t{1}, std::int64_t{1} << 16}) {
    for (int trial = 0; trial < 30; ++trial) {
      const std::int64_t reach = 30 * scale;
      const std::int64_t end = 400 * scale;  // no pushes from here on
      std::int64_t bound = 0;
      BucketQueue q{Time(reach), Time(bound)};
      std::priority_queue<QItem, std::vector<QItem>, decltype(cmp)> heap(cmp);
      std::map<std::int64_t, std::uint64_t> tallies;
      std::int32_t next_idx = 0;
      for (int i = 0; i < 4; ++i) {
        const Work w(rng.uniform_int(0, 9));
        q.push(Time(0), w, next_idx);
        heap.push(QItem{Time(0), w, next_idx++});
      }
      const auto pop_through = [&](std::int64_t b) {
        Time elapsed(0);
        BucketQueue::Item item{};
        while (q.pop(elapsed, item)) {
          ASSERT_FALSE(heap.empty());
          const QItem expect = heap.top();
          heap.pop();
          ASSERT_EQ(elapsed, expect.elapsed) << "trial " << trial;
          ASSERT_EQ(item.idx, expect.idx) << "trial " << trial;
          for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
            const Time child = elapsed + Time(rng.uniform_int(1, 30) * scale);
            const Work w(rng.uniform_int(0, 9));
            if (rng.uniform_int(0, 2) == 0) {
              q.tally(child);
              ++tallies[child.count()];
            } else if (child.count() < end) {
              q.push(child, w, next_idx);
              heap.push(QItem{child, w, next_idx++});
            }
          }
        }
        // Nothing at or below the bound is left.
        EXPECT_TRUE(heap.empty() || heap.top().elapsed > Time(b));
      };
      while (bound < end) {
        pop_through(bound);
        q.park();
        bound += rng.uniform_int(1, 40) * scale;
        q.resume(Time(bound));
      }
      pop_through(bound);
      EXPECT_TRUE(heap.empty());
      EXPECT_EQ(q.size(), 0u);
      // The queue ran empty: every tally is logged.
      std::uint64_t running = 0;
      for (const auto& [tick, n] : tallies) {
        EXPECT_EQ(q.tallied_through(Time(tick - 1)), running) << tick;
        running += n;
        EXPECT_EQ(q.tallied_through(Time(tick)), running) << tick;
      }
      EXPECT_EQ(q.tallied_through(Time::unbounded()), running);
    }
  }
}

TEST(BucketQueue, SparseFallbackBeyondDenseLimit) {
  // A limit past kDenseLimit must not allocate a bucket per tick.
  const Time limit(BucketQueue::kDenseLimit + 1000);
  BucketQueue q(limit);
  q.push(Time(0), Work(1), 0);
  q.push(Time(BucketQueue::kDenseLimit + 500), Work(2), 1);
  q.push(Time(3), Work(3), 2);
  Time elapsed(0);
  BucketQueue::Item item{};
  ASSERT_TRUE(q.pop(elapsed, item));
  EXPECT_EQ(elapsed, Time(0));
  EXPECT_EQ(item.idx, 0);
  ASSERT_TRUE(q.pop(elapsed, item));
  EXPECT_EQ(elapsed, Time(3));
  EXPECT_EQ(item.idx, 2);
  ASSERT_TRUE(q.pop(elapsed, item));
  EXPECT_EQ(elapsed, Time(BucketQueue::kDenseLimit + 500));
  EXPECT_EQ(item.idx, 1);
  EXPECT_FALSE(q.pop(elapsed, item));
}

TEST(BucketQueue, EmptyPopsReturnFalse) {
  BucketQueue q(Time(10));
  Time elapsed(0);
  BucketQueue::Item item{};
  EXPECT_FALSE(q.pop(elapsed, item));
  q.push(Time(2), Work(1), 7);
  ASSERT_TRUE(q.pop(elapsed, item));
  EXPECT_EQ(item.idx, 7);
  EXPECT_FALSE(q.pop(elapsed, item));
}

}  // namespace
}  // namespace strt
