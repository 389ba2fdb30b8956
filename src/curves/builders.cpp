#include "curves/builders.hpp"

#include <algorithm>
#include <string>

#include "base/assert.hpp"
#include "base/checked.hpp"

namespace strt {
namespace curve {

CurveSizeError::CurveSizeError(std::string_view curve)
    : std::runtime_error(std::string(curve) + ": more than " +
                         std::to_string(kMaxCurveSteps) +
                         " breakpoints up to the horizon") {}

namespace {

/// A canonical store holding only the origin step (0, 0).
SegmentStore origin() {
  SegmentStore out;
  out.append(Time(0), Work(0));
  return out;
}

/// The one append of every builder loop: throws CurveSizeError instead
/// of growing past kMaxCurveSteps steps after the origin.  Steps arriving
/// in time order go straight into canonical form -- their running max,
/// a repeated time raising the last step -- so the builder needs no sort.
void append(SegmentStore& out, Step step, std::string_view curve) {
  if (step.value <= out.back_value()) return;
  if (step.time == out.back_time()) {
    out.set_back_value(step.value);
    return;
  }
  if (out.size() > kMaxCurveSteps) throw CurveSizeError(curve);
  out.append(step.time, step.value);
}

/// The same cap on raw points that are not in time order (for
/// Staircase::from_points).
void append(std::vector<Step>& pts, Step step, std::string_view curve) {
  if (pts.size() >= kMaxCurveSteps) throw CurveSizeError(curve);
  pts.push_back(step);
}

}  // namespace

Staircase periodic_arrival(Work wcet, Time period, Time jitter,
                           Time horizon) {
  STRT_REQUIRE(wcet >= Work(1), "wcet must be positive");
  STRT_REQUIRE(period >= Time(1), "period must be positive");
  STRT_REQUIRE(jitter >= Time(0), "jitter must be non-negative");
  STRT_REQUIRE(horizon >= period + jitter + Time(1),
               "horizon must cover at least one period plus jitter");
  // a(t) = wcet * ceil((t + jitter) / period) jumps to (k+1)*wcet at
  // t = k*period - jitter + 1.
  SegmentStore pts = origin();
  const std::int64_t p = period.count();
  const std::int64_t j = jitter.count();
  const std::int64_t c = wcet.count();
  for (std::int64_t k = 0;; ++k) {
    const std::int64_t t = std::max<std::int64_t>(1, k * p - j + 1);
    if (t > horizon.count()) break;
    const std::int64_t v =
        checked::mul(c, checked::ceil_div(t + j, p));
    append(pts, Step{Time(t), Work(v)}, "periodic_arrival");
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{period, wcet});
}

Staircase token_bucket(Work burst, const Rational& rate, Time horizon) {
  STRT_REQUIRE(burst >= Work(0), "burst must be non-negative");
  STRT_REQUIRE(rate > Rational(0), "rate must be positive");
  STRT_REQUIRE(Time(rate.den()) <= horizon,
               "horizon must cover one rate denominator period");
  // a(t) = burst + floor(num * t / den) for t >= 1; jumps where the floor
  // increments, i.e. at t = ceil(v * den / num) for v = 1, 2, ...
  SegmentStore pts = origin();
  append(pts, Step{Time(1), burst + Work(rate.floor())}, "token_bucket");
  const std::int64_t num = rate.num();
  const std::int64_t den = rate.den();
  for (std::int64_t v = rate.floor() + 1;; ++v) {
    const std::int64_t t = checked::ceil_div(checked::mul(v, den), num);
    if (t > horizon.count()) break;
    if (t >= 1) append(pts, Step{Time(t), burst + Work(v)}, "token_bucket");
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{Time(den), Work(num)});
}

Staircase rate_latency(const Rational& rate, Time latency, Time horizon) {
  STRT_REQUIRE(rate > Rational(0), "rate must be positive");
  STRT_REQUIRE(latency >= Time(0), "latency must be non-negative");
  STRT_REQUIRE(horizon >= latency + Time(rate.den()),
               "horizon must cover latency plus one rate period");
  // Value v >= 1 is first reached at t = latency + ceil(v * den / num).
  SegmentStore pts = origin();
  const std::int64_t num = rate.num();
  const std::int64_t den = rate.den();
  for (std::int64_t v = 1;; ++v) {
    const std::int64_t t =
        checked::add(latency.count(),
                     checked::ceil_div(checked::mul(v, den), num));
    if (t > horizon.count()) break;
    append(pts, Step{Time(t), Work(v)}, "rate_latency");
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{Time(den), Work(num)});
}

Staircase dedicated(std::int64_t rate, Time horizon) {
  STRT_REQUIRE(rate >= 1, "dedicated rate must be positive");
  return rate_latency(Rational(rate), Time(0), horizon);
}

Staircase tdma_supply(Time slot, Time cycle, Time horizon) {
  STRT_REQUIRE(slot >= Time(1), "slot must be positive");
  STRT_REQUIRE(slot <= cycle, "slot must fit in the cycle");
  STRT_REQUIRE(cycle <= horizon, "horizon must cover one cycle");
  // Worst-case alignment: the window opens right after a slot ends, so
  // each cycle contributes its service only during its last `slot` ticks.
  SegmentStore pts = origin();
  const std::int64_t s = slot.count();
  const std::int64_t c = cycle.count();
  for (std::int64_t k = 0;; ++k) {
    bool any = false;
    for (std::int64_t u = 1; u <= s; ++u) {
      const std::int64_t t = k * c + (c - s) + u;
      if (t > horizon.count()) break;
      append(pts, Step{Time(t), Work(k * s + u)}, "tdma_supply");
      any = true;
    }
    if (!any) break;
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{cycle, Work(s)});
}

Staircase periodic_resource(Time budget, Time period, Time horizon) {
  STRT_REQUIRE(budget >= Time(1), "budget must be positive");
  STRT_REQUIRE(budget <= period, "budget must fit in the period");
  STRT_REQUIRE(horizon >= period + period,
               "horizon must cover two periods");
  // Shin & Lee worst-case supply: the server delivers its budget at the
  // start of one period and as late as possible in all later periods:
  //   sbf(t) = 0                                     t <= period - budget
  //   sbf(t) = k*budget + max(0, t - 2*(period - budget) - k*period)
  //            with k = floor((t - (period - budget)) / period), else.
  const std::int64_t Q = budget.count();
  const std::int64_t P = period.count();
  auto sbf = [&](std::int64_t t) -> std::int64_t {
    const std::int64_t gap = P - Q;
    if (t <= gap) return 0;
    const std::int64_t k = checked::floor_div(t - gap, P);
    const std::int64_t lin = t - 2 * gap - checked::mul(k, P);
    return checked::add(checked::mul(k, Q), std::max<std::int64_t>(0, lin));
  };
  // Materialize by scanning the closed form; the value changes both on
  // the unit-slope ramps and when k increments, so a plain O(horizon)
  // scan is the simplest correct enumeration.
  SegmentStore pts = origin();
  std::int64_t prev = 0;
  for (std::int64_t t = 1; t <= horizon.count(); ++t) {
    const std::int64_t v = sbf(t);
    if (v > prev) {
      append(pts, Step{Time(t), Work(v)}, "periodic_resource");
      prev = v;
    }
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{period, Work(Q)});
}

Staircase schedule_supply(const std::vector<bool>& active, Time horizon) {
  const auto cycle = static_cast<std::int64_t>(active.size());
  STRT_REQUIRE(cycle >= 1, "schedule must have at least one tick");
  STRT_REQUIRE(horizon >= Time(cycle), "horizon must cover one cycle");
  std::int64_t per_cycle = 0;
  for (const bool a : active) per_cycle += a ? 1 : 0;
  STRT_REQUIRE(per_cycle >= 1, "schedule must have an active tick");

  // Cumulative active ticks from 0, periodically extended.
  auto cum = [&](std::int64_t t) {
    const std::int64_t full = checked::floor_div(t, cycle);
    std::int64_t c = checked::mul(full, per_cycle);
    for (std::int64_t u = full * cycle; u < t; ++u) {
      c += active[static_cast<std::size_t>(u - full * cycle)] ? 1 : 0;
    }
    return c;
  };

  SegmentStore pts = origin();
  std::int64_t prev = 0;
  for (std::int64_t t = 1; t <= horizon.count(); ++t) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::int64_t s = 0; s < cycle; ++s) {
      best = std::min(best, cum(s + t) - cum(s));
    }
    if (best > prev) {
      append(pts, Step{Time(t), Work(best)}, "schedule_supply");
      prev = best;
    }
  }
  return Staircase::from_segments(std::move(pts), horizon,
                                 Tail{Time(cycle), Work(per_cycle)});
}

Staircase arrival_of_trace(std::vector<TraceJob> jobs, Time horizon) {
  std::sort(jobs.begin(), jobs.end(), [](const TraceJob& a,
                                         const TraceJob& b) {
    return a.release < b.release;
  });
  for (const TraceJob& j : jobs) {
    STRT_REQUIRE(j.release >= Time(0), "job release must be non-negative");
    STRT_REQUIRE(j.wcet >= Work(0), "job wcet must be non-negative");
  }
  // Window lengths of (first job, last job) pairs come out of time
  // order, so this builder alone folds its points through from_points.
  std::vector<Step> pts;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Work sum = Work(0);
    for (std::size_t j = i; j < jobs.size(); ++j) {
      sum += jobs[j].wcet;
      const Time window = jobs[j].release - jobs[i].release + Time(1);
      if (window > horizon) break;
      append(pts, Step{window, sum}, "arrival_of_trace");
    }
  }
  return Staircase::from_points(std::move(pts), horizon);
}

}  // namespace curve
}  // namespace strt
