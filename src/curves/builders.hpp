// Constructors for the standard arrival and supply curves.
//
// Every builder materializes an exact staircase on a caller-chosen horizon
// and attaches the exact periodic tail, so downstream finitary analyses
// can extend the curve losslessly to any busy-window length.
//
// The supply and arrival builders emit their steps in time order straight
// into canonical form (no sort, no tail-attaching copy); only
// arrival_of_trace, whose job windows come out of order, sorts its points
// through Staircase::from_points.  Materialization is capped at
// kMaxCurveSteps steps: a builder whose staircase would pass the cap
// throws CurveSizeError before its store grows beyond it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "base/rational.hpp"
#include "base/types.hpp"
#include "curves/staircase.hpp"

namespace strt {
namespace curve {

/// Most breakpoints one builder materializes.  The cap counts steps, not
/// ticks: a supply with long gaps may span far more ticks.
inline constexpr std::size_t kMaxCurveSteps = std::size_t{1} << 20;

/// Thrown by a builder whose staircase would pass kMaxCurveSteps.  svc
/// reports it as the curve.too-large diagnostic.
class CurveSizeError : public std::runtime_error {
 public:
  explicit CurveSizeError(std::string_view curve);
};

/// Upper arrival curve of a sporadic/periodic stream with jitter:
///   a(0) = 0,  a(t) = wcet * ceil((t + jitter) / period)  for t >= 1.
/// Requires period >= 1, wcet >= 1, jitter >= 0, horizon >= period + jitter.
[[nodiscard]] Staircase periodic_arrival(Work wcet, Time period, Time jitter,
                                         Time horizon);

/// Token-bucket upper arrival curve: a(0) = 0,
/// a(t) = burst + floor(rate * t) for t >= 1.  Requires rate > 0 with
/// denominator <= horizon (one full rate period must fit).
[[nodiscard]] Staircase token_bucket(Work burst, const Rational& rate,
                                     Time horizon);

/// Rate-latency lower service curve:
///   b(t) = max(0, floor(rate * (t - latency))).
/// The floor keeps the bound sound (a lower curve may only be rounded
/// down).  Requires rate > 0, latency >= 0, horizon >= latency + den(rate).
[[nodiscard]] Staircase rate_latency(const Rational& rate, Time latency,
                                     Time horizon);

/// Dedicated resource of integer speed `rate` work units per tick.
[[nodiscard]] Staircase dedicated(std::int64_t rate, Time horizon);

/// Worst-case TDMA supply: a slot of `slot` ticks of unit-rate service out
/// of every cycle of `cycle` ticks:
///   sbf(t) = slot * floor(t / cycle) + max(0, (t mod cycle) - (cycle - slot)).
/// Requires 1 <= slot <= cycle <= horizon.
[[nodiscard]] Staircase tdma_supply(Time slot, Time cycle, Time horizon);

/// Worst-case supply of a periodic resource (Shin & Lee): budget `budget`
/// ticks of unit-rate service delivered somewhere within every period of
/// `period` ticks.  Requires 1 <= budget <= period, horizon >= 2 * period.
[[nodiscard]] Staircase periodic_resource(Time budget, Time period,
                                          Time horizon);

/// Worst-case supply of an arbitrary static cyclic schedule: the resource
/// is available exactly during the `true` ticks of `active`, repeated
/// with period active.size(), with the window alignment chosen
/// adversarially:
///   sbf(t) = min over s in [0, cycle) of  C(s + t) - C(s)
/// where C is the cumulative active-tick count.  Generalizes tdma_supply
/// to multiple slots per cycle.  Requires at least one active tick.
[[nodiscard]] Staircase schedule_supply(const std::vector<bool>& active,
                                        Time horizon);

/// One released job of a concrete trace (used by the empirical arrival
/// curve and by the simulator).
struct TraceJob {
  Time release{0};
  Work wcet{0};
};

/// Exact empirical upper arrival curve of a finite trace:
///   a(t) = max over x of work released in [x, x + t).
/// O(n^2) in the number of jobs; the result has no tail.
[[nodiscard]] Staircase arrival_of_trace(std::vector<TraceJob> jobs,
                                         Time horizon);

}  // namespace curve
}  // namespace strt
