#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "base/assert.hpp"
#include "curves/staircase.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

TEST(Staircase, ZeroCurve) {
  const Staircase z(Time(10));
  EXPECT_EQ(z.value(Time(0)), Work(0));
  EXPECT_EQ(z.value(Time(10)), Work(0));
  EXPECT_EQ(z.breakpoint_count(), 1u);
  EXPECT_TRUE(z.starts_at_zero());
}

TEST(Staircase, FromPointsCanonicalizes) {
  // Unsorted input, duplicate times, non-monotone values.
  const Staircase f = Staircase::from_points(
      {Step{Time(5), Work(3)}, Step{Time(2), Work(4)}, Step{Time(5), Work(2)},
       Step{Time(8), Work(4)}},
      Time(10));
  EXPECT_EQ(f.value(Time(0)), Work(0));
  EXPECT_EQ(f.value(Time(1)), Work(0));
  EXPECT_EQ(f.value(Time(2)), Work(4));
  EXPECT_EQ(f.value(Time(5)), Work(4));  // running max absorbs the dip
  EXPECT_EQ(f.value(Time(10)), Work(4));
  EXPECT_EQ(f.breakpoint_count(), 2u);  // (0,0) and (2,4)
}

TEST(Staircase, FromPointsRejectsBadInput) {
  EXPECT_THROW(
      (void)Staircase::from_points({Step{Time(11), Work(1)}}, Time(10)),
      std::invalid_argument);
  EXPECT_THROW(
      (void)Staircase::from_points({Step{Time(-1), Work(1)}}, Time(10)),
      std::invalid_argument);
  EXPECT_THROW(
      (void)Staircase::from_points({Step{Time(1), Work(-1)}}, Time(10)),
      std::invalid_argument);
}

TEST(Staircase, ValueOutsideDomainThrows) {
  const Staircase f(Time(10));
  EXPECT_THROW((void)f.value(Time(11)), std::invalid_argument);
  EXPECT_THROW((void)f.value(Time(-1)), std::invalid_argument);
}

TEST(Staircase, InverseWithinHorizon) {
  const Staircase f = Staircase::from_points(
      {Step{Time(2), Work(3)}, Step{Time(7), Work(8)}}, Time(10));
  EXPECT_EQ(f.inverse(Work(0)), Time(0));
  EXPECT_EQ(f.inverse(Work(1)), Time(2));
  EXPECT_EQ(f.inverse(Work(3)), Time(2));
  EXPECT_EQ(f.inverse(Work(4)), Time(7));
  EXPECT_EQ(f.inverse(Work(8)), Time(7));
  EXPECT_THROW((void)f.inverse(Work(9)), std::invalid_argument);
}

TEST(Staircase, TailEvaluation) {
  // f on [0,10]: jumps to 2 at t=3, to 5 at t=8; tail period 4 inc 3.
  const Staircase f =
      Staircase::from_points({Step{Time(3), Work(2)}, Step{Time(8), Work(5)}},
                             Time(10))
          .with_tail(Tail{Time(4), Work(3)});
  // t=11 folds to t=7 (+3): f(7)=2 -> 5.  t=12 folds to 8: 5+3=8.
  EXPECT_EQ(f.value(Time(11)), Work(5));
  EXPECT_EQ(f.value(Time(12)), Work(8));
  EXPECT_EQ(f.value(Time(16)), Work(11));  // two periods past 8
  // Monotone across the boundary.
  Work prev = f.value(Time(0));
  for (std::int64_t t = 1; t <= 40; ++t) {
    const Work cur = f.value(Time(t));
    EXPECT_GE(cur, prev) << "t=" << t;
    prev = cur;
  }
}

TEST(Staircase, TailInverse) {
  const Staircase f =
      Staircase::from_points({Step{Time(3), Work(2)}, Step{Time(8), Work(5)}},
                             Time(10))
          .with_tail(Tail{Time(4), Work(3)});
  for (std::int64_t w = 1; w <= 40; ++w) {
    const Time t = f.inverse(Work(w));
    ASSERT_FALSE(t.is_unbounded());
    EXPECT_GE(f.value(t), Work(w));
    if (t > Time(0)) {
      EXPECT_LT(f.value(t - Time(1)), Work(w));
    }
  }
}

TEST(Staircase, TailZeroIncrementInverseUnbounded) {
  const Staircase f =
      Staircase::from_points({Step{Time(1), Work(2)}}, Time(10))
          .with_tail(Tail{Time(5), Work(0)});
  EXPECT_EQ(f.inverse(Work(3)), Time::unbounded());
  EXPECT_EQ(f.inverse(Work(2)), Time(1));
}

TEST(Staircase, BadTailRejected) {
  const Staircase f =
      Staircase::from_points({Step{Time(9), Work(5)}}, Time(10));
  // Extension would decrease: f(11) = f(11-4) + 0 = f(7) + 0 = 0 < f(10).
  EXPECT_THROW((void)f.with_tail(Tail{Time(4), Work(0)}), InternalError);
  EXPECT_THROW((void)f.with_tail(Tail{Time(11), Work(1)}), InternalError);
  EXPECT_THROW((void)f.with_tail(Tail{Time(0), Work(1)}), InternalError);
}

TEST(Staircase, ExtendedMaterializesTail) {
  const Staircase f =
      Staircase::from_points({Step{Time(3), Work(2)}}, Time(5))
          .with_tail(Tail{Time(5), Work(2)});
  const Staircase g = f.extended(Time(20));
  EXPECT_EQ(g.horizon(), Time(20));
  for (std::int64_t t = 0; t <= 20; ++t) {
    EXPECT_EQ(g.value(Time(t)), f.value(Time(t))) << "t=" << t;
  }
  EXPECT_TRUE(g.tail().has_value());
}

TEST(Staircase, ExtendedWithoutTailThrows) {
  const Staircase f(Time(5));
  EXPECT_THROW((void)f.extended(Time(10)), std::invalid_argument);
  EXPECT_EQ(f.extended(Time(5)).horizon(), Time(5));  // no-op is fine
}

TEST(Staircase, Truncated) {
  const Staircase f = Staircase::from_points(
      {Step{Time(2), Work(1)}, Step{Time(6), Work(4)}}, Time(10));
  const Staircase g = f.truncated(Time(4));
  EXPECT_EQ(g.horizon(), Time(4));
  EXPECT_EQ(g.value(Time(4)), Work(1));
  EXPECT_EQ(g.breakpoint_count(), 2u);
  EXPECT_THROW((void)f.truncated(Time(11)), std::invalid_argument);
}

TEST(Staircase, ShiftedRight) {
  const Staircase f = Staircase::from_points(
      {Step{Time(1), Work(2)}, Step{Time(4), Work(5)}}, Time(6));
  const Staircase g = f.shifted_right(Time(3));
  EXPECT_EQ(g.horizon(), Time(9));
  EXPECT_EQ(g.value(Time(0)), Work(0));
  EXPECT_EQ(g.value(Time(3)), Work(0));
  EXPECT_EQ(g.value(Time(4)), Work(2));
  EXPECT_EQ(g.value(Time(7)), Work(5));
}

TEST(Staircase, PlusConstantAndScaled) {
  const Staircase f =
      Staircase::from_points({Step{Time(2), Work(3)}}, Time(5));
  EXPECT_EQ(f.plus_constant(Work(2)).value(Time(0)), Work(2));
  EXPECT_EQ(f.plus_constant(Work(2)).value(Time(3)), Work(5));
  EXPECT_EQ(f.scaled(3).value(Time(3)), Work(9));
  EXPECT_EQ(f.scaled(0).value(Time(3)), Work(0));
}

TEST(Staircase, SubadditivityCheck) {
  // f(t) = 2*ceil(t/5) is subadditive.
  const Staircase sub = Staircase::from_points(
      {Step{Time(1), Work(2)}, Step{Time(6), Work(4)},
       Step{Time(11), Work(6)}},
      Time(15));
  EXPECT_TRUE(sub.is_subadditive());
  // A convex ramp is not: f(2) = 5 > 2 * f(1) = 2.
  const Staircase super = Staircase::from_points(
      {Step{Time(1), Work(1)}, Step{Time(2), Work(5)}}, Time(5));
  EXPECT_FALSE(super.is_subadditive());
}

TEST(Staircase, EqualityAndPrint) {
  const Staircase f =
      Staircase::from_points({Step{Time(2), Work(3)}}, Time(5));
  const Staircase g =
      Staircase::from_points({Step{Time(2), Work(3)}}, Time(5));
  EXPECT_EQ(f, g);
  EXPECT_NE(f, f.truncated(Time(4)));
  std::ostringstream os;
  os << f;
  EXPECT_NE(os.str().find("(2,3)"), std::string::npos);
}

TEST(Staircase, ScaledPreservesTail) {
  const Staircase f =
      Staircase::from_points({Step{Time(2), Work(3)}}, Time(6))
          .with_tail(Tail{Time(3), Work(1)});
  const Staircase g = f.scaled(4);
  ASSERT_TRUE(g.tail().has_value());
  EXPECT_EQ(g.tail()->increment, Work(4));
  for (std::int64_t t = 0; t <= 20; ++t) {
    EXPECT_EQ(g.value(Time(t)), f.value(Time(t)) * 4) << t;
  }
  const Staircase z = f.scaled(0);
  ASSERT_TRUE(z.tail().has_value());
  EXPECT_EQ(z.value(Time(19)), Work(0));
}

TEST(Staircase, RandomInverseRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const Staircase f = test::random_staircase(rng, Time(60));
    const Work top = f.value_at_horizon();
    for (std::int64_t w = 0; w <= top.count(); ++w) {
      const Time t = f.inverse(Work(w));
      EXPECT_GE(f.value(t), Work(w));
      if (t > Time(0)) {
      EXPECT_LT(f.value(t - Time(1)), Work(w));
    }
    }
  }
}

TEST(Staircase, StepsThroughCountsTheExtendedCurve) {
  Rng rng(2718);
  for (int trial = 0; trial < 200; ++trial) {
    const Time horizon(rng.uniform_int(1, 40));
    const Staircase base = test::random_staircase(rng, horizon);
    const Time period(rng.uniform_int(1, horizon.count()));
    // The smallest increment that keeps the extension monotone, plus
    // slack; a zero increment only where the last window is flat.
    const Work rise =
        base.value(horizon) - base.value(horizon - period + Time(1));
    const Work inc = rise + Work(rng.uniform_int(0, 3));
    const Staircase f = base.with_tail(Tail{period, inc});
    for (std::int64_t h = 0; h <= 4 * horizon.count() + 7; ++h) {
      EXPECT_EQ(f.steps_through(Time(h)),
                f.extended(Time(h)).truncated(Time(h)).breakpoint_count() -
                    1)
          << "trial " << trial << " h " << h << ": " << f;
    }
  }
}

TEST(Staircase, StepsThroughFarPastTheHorizon) {
  // One step per tick, counted out to 2^62 ticks without building them.
  const Staircase unit = Staircase::from_points({Step{Time(1), Work(1)}},
                                                Time(1))
                             .with_tail(Tail{Time(1), Work(1)});
  EXPECT_EQ(unit.steps_through(Time(std::int64_t{1} << 62)),
            std::size_t{1} << 62);
  // Two steps per period of 3 (ticks 2 and 3 of each).
  const Staircase two =
      Staircase::from_points({Step{Time(2), Work(1)}, Step{Time(3), Work(2)}},
                             Time(3))
          .with_tail(Tail{Time(3), Work(2)});
  EXPECT_EQ(two.steps_through(Time(3 * (std::int64_t{1} << 40) + 2)),
            (std::size_t{1} << 41) + 1);
}

TEST(Staircase, ContentHashIsKeptAndIgnoredByEquality) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Staircase f = test::random_staircase(rng, Time(50))
                            .with_tail(Tail{Time(50), Work(100)});
    const Staircase fresh = f;  // copied before any hash was taken
    const std::uint64_t h = f.content_hash();
    EXPECT_EQ(f.content_hash(), h);
    const Staircase copy = f;  // carries the hash along
    EXPECT_EQ(copy.content_hash(), h);
    EXPECT_EQ(fresh, f);  // one hashed, one not: still equal
    EXPECT_EQ(fresh.content_hash(), h);
    EXPECT_NE(f.without_tail().content_hash(), h);
    EXPECT_NE(f.truncated(Time(49)).content_hash(), h);
  }
  // Threads racing the first computation on one shared curve agree.
  const Staircase shared = test::random_staircase(rng, Time(5000));
  std::vector<std::uint64_t> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = shared.content_hash(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t h : seen) EXPECT_EQ(h, seen[0]);
  EXPECT_EQ(shared.truncated(shared.horizon()).content_hash(), seen[0]);
}

}  // namespace
}  // namespace strt
