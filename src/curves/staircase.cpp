#include "curves/staircase.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "base/checked.hpp"
#include "base/hash.hpp"
#include "obs/counters.hpp"

namespace strt {

Staircase::Staircase(Time horizon) : horizon_(horizon) {
  STRT_REQUIRE(horizon >= Time(0), "horizon must be non-negative");
  store_.append(Time(0), Work(0));
}

Staircase::Staircase(SegmentStore store, Time horizon,
                     std::optional<Tail> tail)
    : store_(std::move(store)), horizon_(horizon), tail_(std::move(tail)) {
  check_invariants();
}

void Staircase::check_invariants() const {
  STRT_ASSERT(!store_.empty(), "staircase has no steps");
  const auto ts = store_.times();
  const auto vs = store_.values();
  STRT_ASSERT(ts.front() == Time(0), "first step must be at t=0");
  for (std::size_t i = 1; i < ts.size(); ++i) {
    STRT_ASSERT(ts[i - 1] < ts[i], "step times must be strictly increasing");
    STRT_ASSERT(vs[i - 1] < vs[i],
                "step values must be strictly increasing (canonical form)");
  }
  STRT_ASSERT(ts.back() <= horizon_, "step beyond horizon");
  if (tail_) {
    STRT_ASSERT(tail_->period >= Time(1), "tail period must be >= 1");
    STRT_ASSERT(tail_->period <= horizon_,
                "tail period must fit inside the horizon");
    STRT_ASSERT(tail_->increment >= Work(0),
                "tail increment must be non-negative");
    // Monotonicity across the horizon boundary: the first extended value
    // f(H+1) = f(H+1-p) + w must not fall below f(H).
    const Work boundary =
        value_in_range(horizon_ - tail_->period + Time(1)) + tail_->increment;
    STRT_ASSERT(boundary >= value_in_range(horizon_),
                "periodic tail would make the curve decrease");
  }
}

Staircase Staircase::from_points(std::vector<Step> points, Time horizon) {
  STRT_REQUIRE(horizon >= Time(0), "horizon must be non-negative");
  static obs::Counter& c_calls = obs::counter("staircase.from_points.calls");
  static obs::Counter& c_points = obs::counter("staircase.from_points.points");
  c_calls.add(1);
  c_points.add(points.size());
  for (const Step& p : points) {
    STRT_REQUIRE(p.time >= Time(0) && p.time <= horizon,
                 "point outside [0, horizon]");
    STRT_REQUIRE(p.value >= Work(0), "point value must be non-negative");
  }
  std::sort(points.begin(), points.end(),
            [](const Step& a, const Step& b) { return a.time < b.time; });
  SegmentStore canon;
  canon.reserve(points.size() + 1);
  canon.append(Time(0), Work(0));
  for (const Step& p : points) {
    const Work v = max(p.value, canon.back_value());
    if (p.time == canon.back_time()) {
      canon.set_back_value(v);
    } else if (v > canon.back_value()) {
      canon.append(p.time, v);
    }
  }
  return Staircase(std::move(canon), horizon, std::nullopt);
}

Staircase Staircase::from_segments(SegmentStore segments, Time horizon,
                                   std::optional<Tail> tail) {
  return Staircase(std::move(segments), horizon, std::move(tail));
}

Staircase Staircase::with_tail(Tail tail) const {
  return Staircase(store_, horizon_, tail);
}

Staircase Staircase::without_tail() const {
  return Staircase(store_, horizon_, std::nullopt);
}

Work Staircase::value_in_range(Time t) const {
  STRT_ASSERT(t >= Time(0) && t <= horizon_, "value_in_range out of range");
  // Last step with step.time <= t.
  const std::size_t idx = soa_upper_bound(store_.times(), t);
  STRT_ASSERT(idx > 0, "no step at or before t");
  return store_.value(idx - 1);
}

Work Staircase::value(Time t) const {
  STRT_REQUIRE(t >= Time(0), "curve domain starts at 0");
  if (t <= horizon_) return value_in_range(t);
  STRT_REQUIRE(tail_.has_value(),
               "value beyond horizon requires a periodic tail");
  // Fold t into the last period window (horizon - p, horizon].
  const std::int64_t p = tail_->period.count();
  const std::int64_t over = (t - horizon_).count();
  const std::int64_t m = checked::ceil_div(over, p);
  const Time base = t - Time(checked::mul(m, p));
  return value_in_range(base) + Work(checked::mul(m, tail_->increment.count()));
}

Time Staircase::inverse(Work w) const {
  static obs::Counter& c_calls = obs::counter("staircase.inverse.calls");
  c_calls.add(1);
  const auto vs = store_.values();
  if (w <= vs.front()) return Time(0);
  if (w <= vs.back()) {
    // First step with value >= w; the step's start time is the answer.
    const std::size_t idx = soa_lower_bound(vs, w);
    STRT_ASSERT(idx < vs.size(), "inverse lookup failed");
    return store_.time(idx);
  }
  if (!tail_) {
    throw std::invalid_argument(
        "Staircase::inverse: target value beyond horizon and the curve has "
        "no tail; extend the curve first");
  }
  if (tail_->increment == Work(0)) return Time::unbounded();
  // Beyond the horizon the value in window m >= 1 (covering times
  // (H + (m-1)p, H + mp]) is f(t - mp) + m*w with t - mp in (H - p, H].
  // The extension is monotone, so the smallest crossing lies in the first
  // window whose top value f(H) + m*inc reaches the target; inside that
  // window the crossing is the in-range inverse of the de-lifted value,
  // clamped to the window start.
  const std::int64_t p = tail_->period.count();
  const std::int64_t inc = tail_->increment.count();
  const std::int64_t need = checked::sub(w.count(), vs.back().count());
  const std::int64_t m = checked::ceil_div(need, inc);
  const Work de_lifted = Work(checked::sub(w.count(), checked::mul(m, inc)));
  const std::size_t idx = soa_lower_bound(vs, de_lifted);
  STRT_ASSERT(idx < vs.size(), "inverse window selection failed");
  const Time base = max(store_.time(idx), horizon_ - Time(p) + Time(1));
  return base + Time(checked::mul(m, p));
}

std::size_t Staircase::steps_through(Time h) const {
  const auto ts = store_.times();
  if (h <= horizon_) return soa_upper_bound(ts, h) - 1;
  STRT_REQUIRE(tail_.has_value(), "counting beyond horizon requires a tail");
  // extended(h) repeats the base window (H - p, H] once per period: every
  // full window adds the same steps -- its start when the lift clears
  // f(H), then one per base breakpoint inside the window -- and a partial
  // last window adds those that fit (see extended()).
  const std::int64_t p = tail_->period.count();
  const Time wbase = horizon_ - tail_->period + Time(1);
  const std::size_t i0 = soa_upper_bound(ts, wbase);
  const std::uint64_t starts =
      tail_->increment > Work(0) &&
              value_in_range(wbase) + tail_->increment > store_.back_value()
          ? 1
          : 0;
  const std::uint64_t inner =
      tail_->increment > Work(0) ? ts.size() - i0 : 0;
  const std::int64_t over = (h - horizon_).count();
  const auto full = static_cast<std::uint64_t>(over / p);
  // Step times are distinct integers in (0, h], so n <= h cannot
  // overflow.
  std::uint64_t n = ts.size() - 1 + full * (starts + inner);
  if (over % p != 0 && tail_->increment > Work(0)) {
    // The partial window starts at H + full * p + 1 <= h.
    const Time shift = h - Time(over % p) + tail_->period - horizon_;
    const std::size_t fit = soa_upper_bound(ts, h - shift);
    n += starts + (fit > i0 ? fit - i0 : 0);
  }
  return static_cast<std::size_t>(n);
}

std::uint64_t Staircase::content_hash() const {
  if (const std::uint64_t cached = hash_.load(); cached != 0) return cached;
  std::uint64_t fp = mix64(0x5374616972636173ULL);  // "Staircas"
  fp = hash_combine(fp, static_cast<std::uint64_t>(horizon_.count()));
  if (tail_) {
    fp = hash_combine(fp, static_cast<std::uint64_t>(tail_->period.count()));
    fp = hash_combine(fp,
                      static_cast<std::uint64_t>(tail_->increment.count()));
  } else {
    fp = hash_combine(fp, 0xffffffffffffffffULL);
  }
  fp = hash_combine(fp, store_.size());
  const auto ts = store_.times();
  const auto vs = store_.values();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    fp = hash_combine(fp, static_cast<std::uint64_t>(ts[i].count()));
    fp = hash_combine(fp, static_cast<std::uint64_t>(vs[i].count()));
  }
  hash_.store(fp);
  return fp;
}

std::optional<Rational> Staircase::long_run_rate() const {
  if (!tail_) return std::nullopt;
  return Rational(tail_->increment.count(), tail_->period.count());
}

Staircase Staircase::extended(Time h) const {
  if (h <= horizon_) return *this;
  STRT_REQUIRE(tail_.has_value(), "extending beyond horizon requires a tail");
  // Beyond the horizon, window m >= 1 covers (H + (m-1)p, H + mp] and
  // repeats the base window (H - p, H] shifted right by m*p and lifted by
  // m*inc.  Within a window the value changes only at the window start
  // and at the shifted breakpoints, so those are the only candidate
  // steps -- no per-tick scan.
  const std::int64_t p = tail_->period.count();
  const std::int64_t inc = tail_->increment.count();
  const Time wbase = horizon_ - tail_->period + Time(1);
  const Work vbase = value_in_range(wbase);
  const auto ts = store_.times();
  const std::size_t i0 = soa_upper_bound(ts, wbase);
  SegmentStore out = store_;
  Work last = store_.back_value();
  const auto emit = [&](Time t, Work v) {
    if (v > last) {
      out.append(t, v);
      last = v;
    }
  };
  for (std::int64_t m = 1;; ++m) {
    const std::int64_t shift = checked::mul(m, p);
    const Work lift = Work(checked::mul(m, inc));
    const Time tstart = wbase + Time(shift);
    if (tstart > h) break;
    emit(tstart, vbase + lift);
    for (std::size_t i = i0; i < ts.size(); ++i) {
      const Time t = ts[i] + Time(shift);
      if (t > h) break;
      emit(t, store_.value(i) + lift);
    }
    if (checked::add(horizon_.count(), shift) >= h.count()) break;
  }
  return Staircase(std::move(out), h, tail_);
}

Staircase Staircase::truncated(Time h) const {
  STRT_REQUIRE(h >= Time(0) && h <= horizon_,
               "truncation horizon outside current domain");
  const std::size_t n = soa_upper_bound(store_.times(), h);
  SegmentStore out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.append(store_.time(i), store_.value(i));
  }
  return Staircase(std::move(out), h, std::nullopt);
}

Staircase Staircase::shifted_right(Time d) const {
  STRT_REQUIRE(d >= Time(0), "shift must be non-negative");
  if (d == Time(0)) return *this;
  SegmentStore out;
  out.reserve(store_.size() + 1);
  out.append(Time(0), Work(0));
  for (std::size_t i = 0; i < store_.size(); ++i) {
    if (store_.value(i) == Work(0)) continue;  // covered by the leading zero
    out.append(store_.time(i) + d, store_.value(i));
  }
  return Staircase(std::move(out), horizon_ + d, tail_);
}

Staircase Staircase::plus_constant(Work c) const {
  STRT_REQUIRE(c >= Work(0), "constant must be non-negative");
  SegmentStore out;
  out.reserve(store_.size());
  for (std::size_t i = 0; i < store_.size(); ++i) {
    out.append(store_.time(i), store_.value(i) + c);
  }
  return Staircase(std::move(out), horizon_, tail_);
}

Staircase Staircase::scaled(std::int64_t k) const {
  STRT_REQUIRE(k >= 0, "scale factor must be non-negative");
  if (k == 0) {
    Staircase z(horizon_);
    if (tail_) return z.with_tail(Tail{tail_->period, Work(0)});
    return z;
  }
  SegmentStore out;
  out.reserve(store_.size());
  for (std::size_t i = 0; i < store_.size(); ++i) {
    out.append(store_.time(i), Work(checked::mul(store_.value(i).count(), k)));
  }
  std::optional<Tail> tail = tail_;
  if (tail) tail->increment = Work(checked::mul(tail->increment.count(), k));
  return Staircase(std::move(out), horizon_, tail);
}

bool Staircase::is_subadditive() const {
  // f is subadditive iff f(c) <= min_{s <= c} f(s) + f(c - s) for every c.
  // It suffices to check c at breakpoints (elsewhere f(c) equals the value
  // at the preceding breakpoint while the right side can only be larger),
  // and for each such c the inner minimum is attained with s at a
  // breakpoint (within a step, shrinking s keeps f(s) and cannot decrease
  // f(c - s)).
  const auto ts = store_.times();
  const auto vs = store_.values();
  for (std::size_t c = 0; c < ts.size(); ++c) {
    for (std::size_t a = 0; a < ts.size(); ++a) {
      if (ts[a] > ts[c]) break;
      if (vs[c] > vs[a] + value_in_range(ts[c] - ts[a])) return false;
    }
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Staircase& f) {
  os << "Staircase[H=" << f.horizon() << "]{";
  bool first = true;
  for (const Step& s : f.steps()) {
    if (!first) os << ", ";
    os << '(' << s.time << ',' << s.value << ')';
    first = false;
  }
  os << '}';
  if (f.tail()) {
    os << "+tail(p=" << f.tail()->period << ",w=" << f.tail()->increment
       << ')';
  }
  return os;
}

}  // namespace strt
