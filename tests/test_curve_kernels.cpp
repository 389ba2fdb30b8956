// Property suite for the SoA curve kernels.
//
// The pre-refactor AoS kernels (bench/legacy_curves, the same algorithms
// the curve layer shipped before the SegmentStore overhaul) serve as the
// oracle: on random curves every rewritten kernel must reproduce the old
// results bit for bit -- same breakpoints, same horizons, same throws.

#include <gtest/gtest.h>

#include <stdexcept>

#include "curves/minplus.hpp"
#include "curves/staircase.hpp"
#include "legacy_curves.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

using test::random_staircase;

/// A tail that is always legal for `f`: one full-horizon period whose
/// increment repeats the whole climb (so the boundary monotonicity check
/// holds for any curve).
Tail full_tail(const Staircase& f) {
  return Tail{f.horizon(), f.value_at_horizon() + Work(1)};
}

/// Step-array equality between the two layouts.
void expect_same_curve(const Staircase& got, const legacy::LegacyCurve& want,
                       const char* what) {
  ASSERT_EQ(got.horizon(), want.horizon) << what;
  ASSERT_EQ(got.breakpoint_count(), want.steps.size()) << what;
  const auto ts = got.times();
  const auto vs = got.values();
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(ts[i], want.steps[i].time) << what << " step " << i;
    EXPECT_EQ(vs[i], want.steps[i].value) << what << " step " << i;
  }
}

TEST(CurveKernels, ValueAndInverseBitIdentity) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const Time h(rng.uniform_int(1, 80));
    Staircase f = random_staircase(rng, h, 6, 0.4);
    if (rng.chance(0.5)) f = f.with_tail(full_tail(f));
    const legacy::LegacyCurve lf = legacy::from_staircase(f);

    const Time probe_to = f.tail() ? h + h + Time(3) : h;
    for (Time t(0); t <= probe_to; t = t + Time(1)) {
      ASSERT_EQ(f.value(t), lf.value(t)) << "value(" << t.count() << ")";
    }
    const Work top = f.tail() ? f.value_at_horizon() + Work(25)
                              : f.value_at_horizon();
    for (Work w(0); w <= top; w = w + Work(1)) {
      ASSERT_EQ(f.inverse(w), lf.inverse(w)) << "inverse(" << w.count()
                                             << ")";
    }
  }
}

TEST(CurveKernels, InverseBeyondHorizonThrowsLikeLegacy) {
  Rng rng(17);
  const Staircase f = random_staircase(rng, Time(40));
  const legacy::LegacyCurve lf = legacy::from_staircase(f);
  const Work beyond = f.value_at_horizon() + Work(1);
  EXPECT_THROW((void)f.inverse(beyond), std::invalid_argument);
  EXPECT_THROW((void)lf.inverse(beyond), std::invalid_argument);
}

TEST(CurveKernels, ConvBitIdentity) {
  Rng rng(202);
  for (int trial = 0; trial < 25; ++trial) {
    const Staircase f = random_staircase(rng, Time(rng.uniform_int(1, 60)));
    const Staircase g = random_staircase(rng, Time(rng.uniform_int(1, 60)));
    const Staircase got = minplus_conv(f, g);
    const legacy::LegacyCurve want =
        legacy::conv(legacy::from_staircase(f), legacy::from_staircase(g));
    expect_same_curve(got, want, "conv");
  }
}

TEST(CurveKernels, DeconvBitIdentity) {
  Rng rng(303);
  for (int trial = 0; trial < 25; ++trial) {
    const Staircase f = random_staircase(rng, Time(rng.uniform_int(40, 120)),
                                         8, 0.5);
    const Staircase g = random_staircase(rng, Time(rng.uniform_int(1, 40)));
    const Staircase got = minplus_deconv(f, g);
    const legacy::LegacyCurve want =
        legacy::deconv(legacy::from_staircase(f), legacy::from_staircase(g));
    expect_same_curve(got, want, "deconv");
  }
}

TEST(CurveKernels, HdevBitIdentity) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const Staircase a = random_staircase(rng, Time(rng.uniform_int(1, 70)));
    Staircase b = random_staircase(rng, Time(rng.uniform_int(1, 70)), 6,
                                   0.4);
    b = b.with_tail(full_tail(b));  // keep every inverse in-domain
    EXPECT_EQ(hdev(a, b),
              legacy::hdev(legacy::from_staircase(a),
                           legacy::from_staircase(b)));
  }
}

TEST(CurveKernels, HdevUnboundedMatchesLegacy) {
  Rng rng(18);
  Staircase a = random_staircase(rng, Time(30), 5, 0.8);
  ASSERT_GT(a.value_at_horizon(), Work(0));
  // Flat supply with a zero-increment tail: the crossing never happens.
  const Staircase b =
      Staircase(Time(10)).with_tail(Tail{Time(1), Work(0)});
  EXPECT_TRUE(hdev(a, b).is_unbounded());
  EXPECT_TRUE(legacy::hdev(legacy::from_staircase(a),
                           legacy::from_staircase(b))
                  .is_unbounded());
}

TEST(CurveKernels, VdevBitIdentity) {
  Rng rng(505);
  for (int trial = 0; trial < 40; ++trial) {
    const Staircase a = random_staircase(rng, Time(rng.uniform_int(1, 70)));
    Staircase b = random_staircase(rng, Time(rng.uniform_int(1, 70)));
    b = b.with_tail(full_tail(b));
    const Time upto(rng.uniform_int(0, 80));
    EXPECT_EQ(vdev(a, b, upto),
              legacy::vdev(legacy::from_staircase(a),
                           legacy::from_staircase(b), upto));
  }
}

TEST(CurveKernels, PointwiseBitIdentity) {
  Rng rng(606);
  for (int trial = 0; trial < 25; ++trial) {
    const Staircase f = random_staircase(rng, Time(rng.uniform_int(1, 80)));
    const Staircase g = random_staircase(rng, Time(rng.uniform_int(1, 80)));
    const legacy::LegacyCurve lf = legacy::from_staircase(f);
    const legacy::LegacyCurve lg = legacy::from_staircase(g);
    expect_same_curve(pointwise_add(f, g), legacy::pointwise_add(lf, lg),
                      "pointwise_add");
    expect_same_curve(pointwise_min(f, g), legacy::pointwise_min(lf, lg),
                      "pointwise_min");
    expect_same_curve(pointwise_max(f, g), legacy::pointwise_max(lf, lg),
                      "pointwise_max");
  }
}

TEST(CurveKernels, FirstCatchUpAndLeftoverBitIdentity) {
  Rng rng(707);
  for (int trial = 0; trial < 40; ++trial) {
    const Staircase a = random_staircase(rng, Time(rng.uniform_int(1, 60)));
    const Staircase b = random_staircase(rng, Time(rng.uniform_int(1, 60)));
    const legacy::LegacyCurve la = legacy::from_staircase(a);
    const legacy::LegacyCurve lb = legacy::from_staircase(b);
    EXPECT_EQ(first_catch_up(a, b), legacy::first_catch_up(la, lb));
    expect_same_curve(leftover_service(b, a),
                      legacy::leftover_service(lb, la), "leftover");
  }
}

TEST(CurveKernels, HdevResumeMatchesFullRecompute) {
  Rng rng(808);
  for (int trial = 0; trial < 15; ++trial) {
    Staircase b = random_staircase(rng, Time(60), 6, 0.4);
    b = b.with_tail(full_tail(b));
    Staircase a = random_staircase(rng, Time(20), 4, 0.5);
    a = a.with_tail(full_tail(a));

    HdevCursor cur;
    Time incremental = hdev_resume(a, b, cur);
    EXPECT_EQ(incremental, hdev(a, b));
    for (Time h(30); h <= Time(90); h = h + Time(15)) {
      a = a.extended(h);
      incremental = hdev_resume(a, b, cur);
      EXPECT_EQ(incremental, hdev(a, b))
          << "resumed hdev at horizon " << h.count();
    }
  }
}

}  // namespace
}  // namespace strt
