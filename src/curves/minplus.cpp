#include "curves/minplus.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "base/assert.hpp"
#include "base/checked.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

// (De)convolution enumerates one constant piece per breakpoint pair; fail
// loudly instead of exhausting memory on absurdly fine-grained operands.
constexpr std::size_t kMaxPieces = 30'000'000;

void check_piece_budget(std::size_t nf, std::size_t ng) {
  STRT_LIMIT(nf <= kMaxPieces / std::max<std::size_t>(ng, 1),
             "minplus (de)convolution: operands have too many breakpoints; "
             "shrink the analysis horizon");
}

/// Canonical-staircase accumulator for samples arriving in non-decreasing
/// time order: replicates from_points' running-max fold (same bits) while
/// skipping its sort and building the SoA store directly.
class CanonBuilder {
 public:
  CanonBuilder() { store_.append(Time(0), Work(0)); }

  void reserve(std::size_t n) { store_.reserve(n + 1); }

  void sample(Time t, Work v) {
    const Work folded = max(v, store_.back_value());
    if (t == store_.back_time()) {
      store_.set_back_value(folded);
    } else if (folded > store_.back_value()) {
      store_.append(t, folded);
    }
  }

  [[nodiscard]] Staircase finish(Time horizon) {
    return Staircase::from_segments(std::move(store_), horizon);
  }

 private:
  SegmentStore store_;
};

/// Linear merge of two curves' breakpoint times restricted to [0, upto]:
/// calls fn(t, f(t), g(t)) at every merged time in increasing order.  Both
/// running value indices ride along with the merge, so each sample costs
/// O(1) instead of two binary searches.
template <class Fn>
void merge_scan(const Staircase& f, const Staircase& g, Time upto, Fn&& fn) {
  const auto fts = f.times();
  const auto fvs = f.values();
  const auto gts = g.times();
  const auto gvs = g.values();
  std::size_t pa = 0, pb = 0;  // next breakpoint candidates
  std::size_t ca = 0, cb = 0;  // last breakpoint with time <= t
  while (pa < fts.size() || pb < gts.size()) {
    Time t{0};
    if (pa < fts.size() && (pb >= gts.size() || fts[pa] <= gts[pb])) {
      t = fts[pa];
    } else {
      t = gts[pb];
    }
    if (t > upto) break;
    if (pa < fts.size() && fts[pa] == t) ca = pa++;
    if (pb < gts.size() && gts[pb] == t) cb = pb++;
    fn(t, fvs[ca], gvs[cb]);
  }
}

template <class Combine>
Staircase pointwise_op(const Staircase& f, const Staircase& g, Combine&& op) {
  static obs::Counter& c_calls = obs::counter("minplus.pointwise.calls");
  c_calls.add(1);
  const Time h = min(f.horizon(), g.horizon());
  CanonBuilder out;
  out.reserve(f.breakpoint_count() + g.breakpoint_count());
  merge_scan(f, g, h,
             [&](Time t, Work fv, Work gv) { out.sample(t, op(fv, gv)); });
  return out.finish(h);
}

/// A constant-valued piece of a two-operand envelope, covering the
/// inclusive time range [begin, end].
struct Piece {
  Time begin;
  Time end;
  Work value;
};

/// Lower (kMin) or upper (!kMin) envelope of constant pieces, evaluated
/// as a staircase on [0, horizon].  Piece ranges are inclusive and may
/// start before 0 (clamped).  The envelope value can change both when a
/// piece starts and just after one expires, so both event kinds are
/// sampled; the sorted event sweep feeds the canonical builder directly
/// (no second sort-and-fold pass).
template <bool kMin>
Staircase envelope(std::vector<Piece> pieces, Time horizon) {
  // Clamp starts, drop pieces entirely outside [0, horizon].
  std::erase_if(pieces, [&](const Piece& p) {
    return p.end < Time(0) || p.begin > horizon;
  });
  for (Piece& p : pieces) p.begin = max(p.begin, Time(0));
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.begin < b.begin; });

  std::vector<Time> events;
  events.reserve(2 * pieces.size());
  for (const Piece& p : pieces) {
    events.push_back(p.begin);
    if (p.end + Time(1) <= horizon) events.push_back(p.end + Time(1));
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  struct HeapItem {
    Work value;
    Time end;
  };
  auto cmp = [](const HeapItem& a, const HeapItem& b) {
    if constexpr (kMin) {
      return a.value > b.value;  // min-heap by value
    } else {
      return a.value < b.value;  // max-heap by value
    }
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
      cmp);

  CanonBuilder out;
  out.reserve(events.size());
  std::size_t i = 0;
  for (Time t : events) {
    while (i < pieces.size() && pieces[i].begin <= t) {
      if (pieces[i].end >= t) {
        heap.push(HeapItem{pieces[i].value, pieces[i].end});
      }
      ++i;
    }
    while (!heap.empty() && heap.top().end < t) heap.pop();
    STRT_ASSERT(!heap.empty(), "envelope has a gap");
    out.sample(t, max(heap.top().value, Work(0)));
  }
  return out.finish(horizon);
}

}  // namespace

Staircase pointwise_add(const Staircase& f, const Staircase& g) {
  Staircase r = pointwise_op(f, g, [](Work a, Work b) { return a + b; });
  // (Monotonicity of r is re-verified by the Staircase constructor; this
  // cross-checks the *values* against a direct evaluation.)
  STRT_DCHECK(([&] {
    for (const Step& s : r.steps()) {
      if (s.value != f.value(s.time) + g.value(s.time)) return false;
    }
    return r.value(r.horizon()) ==
           f.value(r.horizon()) + g.value(r.horizon());
  }()),
              "pointwise_add samples must equal f(t) + g(t)");
  return r;
}

Staircase pointwise_min(const Staircase& f, const Staircase& g) {
  return pointwise_op(f, g, [](Work a, Work b) { return min(a, b); });
}

Staircase pointwise_max(const Staircase& f, const Staircase& g) {
  return pointwise_op(f, g, [](Work a, Work b) { return max(a, b); });
}

Staircase minplus_conv(const Staircase& f, const Staircase& g) {
  // A decomposition t = s + (t - s) with s inside step i of f and t - s
  // inside step j of g exists iff  a_i + b_j <= t <= a_{i+1}-1 + b_{j+1}-1,
  // and then contributes value f_i + g_j.  The convolution is the lower
  // envelope of these constant pieces.
  const obs::Span span("minplus.conv");
  static obs::Counter& c_calls = obs::counter("minplus.conv.calls");
  static obs::Counter& c_pieces = obs::counter("minplus.conv.pieces");
  const Time horizon = f.horizon() + g.horizon();
  const auto fts = f.times();
  const auto fvs = f.values();
  const auto gts = g.times();
  const auto gvs = g.values();
  c_calls.add(1);
  c_pieces.add(fts.size() * gts.size());
  check_piece_budget(fts.size(), gts.size());
  std::vector<Piece> pieces;
  pieces.reserve(fts.size() * gts.size());
  for (std::size_t i = 0; i < fts.size(); ++i) {
    const Time ai = fts[i];
    const Time ai1 =
        (i + 1 < fts.size()) ? fts[i + 1] : f.horizon() + Time(1);
    for (std::size_t j = 0; j < gts.size(); ++j) {
      const Time bj = gts[j];
      const Time bj1 =
          (j + 1 < gts.size()) ? gts[j + 1] : g.horizon() + Time(1);
      pieces.push_back(Piece{ai + bj, ai1 + bj1 - Time(2), fvs[i] + gvs[j]});
    }
  }
  Staircase r = envelope</*kMin=*/true>(std::move(pieces), horizon);
  // conv(t) = min_s f(s) + g(t-s) <= f(t) + g(0) wherever f is defined
  // (and symmetrically); a breakpoint above that bound means the envelope
  // dropped a piece.
  STRT_DCHECK(([&] {
    for (const Step& s : r.steps()) {
      if (s.time <= f.horizon() &&
          s.value > f.value(s.time) + g.value(Time(0))) {
        return false;
      }
      if (s.time <= g.horizon() &&
          s.value > g.value(s.time) + f.value(Time(0))) {
        return false;
      }
    }
    return true;
  }()),
              "minplus_conv must lie below f(t) + g(0) and g(t) + f(0)");
  return r;
}

Staircase minplus_deconv(const Staircase& f, const Staircase& g) {
  STRT_REQUIRE(g.horizon() <= f.horizon(),
               "deconvolution requires Hg <= Hf (extend f first)");
  const obs::Span span("minplus.deconv");
  static obs::Counter& c_calls = obs::counter("minplus.deconv.calls");
  static obs::Counter& c_pieces = obs::counter("minplus.deconv.pieces");
  const Time horizon = f.horizon() - g.horizon();
  // For f-step i and g-step j the witness u exists iff
  //   u in [b_j, b_{j+1}-1]  and  t + u in [a_i, a_{i+1}-1]
  // which is non-empty iff  a_i - (b_{j+1}-1) <= t <= (a_{i+1}-1) - b_j.
  const auto fts = f.times();
  const auto fvs = f.values();
  const auto gts = g.times();
  const auto gvs = g.values();
  c_calls.add(1);
  c_pieces.add(fts.size() * gts.size());
  check_piece_budget(fts.size(), gts.size());
  std::vector<Piece> pieces;
  pieces.reserve(fts.size() * gts.size());
  for (std::size_t i = 0; i < fts.size(); ++i) {
    const Time ai = fts[i];
    const Time ai1 =
        (i + 1 < fts.size()) ? fts[i + 1] : f.horizon() + Time(1);
    for (std::size_t j = 0; j < gts.size(); ++j) {
      const Time bj = gts[j];
      const Time bj1 =
          (j + 1 < gts.size()) ? gts[j + 1] : g.horizon() + Time(1);
      const Work raw = Work(checked::sub(fvs[i].count(), gvs[j].count()));
      pieces.push_back(Piece{ai - (bj1 - Time(1)), (ai1 - Time(1)) - bj,
                             raw});
    }
  }
  return envelope</*kMin=*/false>(std::move(pieces), horizon);
}

Time hdev(const Staircase& a, const Staircase& b) {
  HdevCursor cur;
  return hdev_resume(a, b, cur);
}

Time hdev_resume(const Staircase& a, const Staircase& b, HdevCursor& cur) {
  // Discrete-time semantics: a step of `a` at window length t covers a
  // release at offset t-1, so the delay candidate of the step (t, v) is
  // b^{-1}(v) - (t - 1).  Within a step larger t only shrinks the
  // candidate, so the step starts are the only candidates.
  //
  // a's step values are strictly increasing, so the in-range crossings
  // b^{-1}(v) are non-decreasing: one forward pointer over b's values
  // serves every step -- a two-pointer linear merge (O(na + nb)) instead
  // of a binary search per step.  Values beyond b's horizon fall back to
  // the tail-folding inverse (same math, same results).
  if (cur.worst.is_unbounded()) return cur.worst;
  const auto ats = a.times();
  const auto avs = a.values();
  const auto bts = b.times();
  const auto bvs = b.values();
  const Work b_top = bvs[bvs.size() - 1];
  for (std::size_t i = cur.next_step; i < avs.size(); ++i) {
    const Work v = avs[i];
    if (v == Work(0)) continue;
    Time crossing{0};
    if (v <= bvs.front()) {
      crossing = Time(0);
    } else if (v <= b_top) {
      std::size_t j = cur.b_pos;
      while (bvs[j] < v) ++j;  // bounded: b_top >= v
      cur.b_pos = j;
      crossing = bts[j];
    } else {
      crossing = b.inverse(v);
      if (crossing.is_unbounded()) {
        cur.next_step = avs.size();
        cur.worst = Time::unbounded();
        return cur.worst;
      }
    }
    const Time release = max(Time(0), ats[i] - Time(1));
    if (crossing > release) cur.worst = max(cur.worst, crossing - release);
  }
  cur.next_step = avs.size();
  return cur.worst;
}

Work vdev(const Staircase& a, const Staircase& b, Time upto) {
  STRT_REQUIRE(upto >= Time(0), "vdev horizon must be non-negative");
  // Backlog just after the releases at time t: arrivals a(t+1) (window
  // [0, t+1) includes them) minus service b(t) delivered so far.  With a
  // constant between its steps and b non-decreasing, candidates are the
  // steps of a evaluated at t = step.time - 1.  The probe times grow
  // monotonically, so one forward pointer over b serves all of them.
  const auto ats = a.times();
  const auto avs = a.values();
  const auto bts = b.times();
  const auto bvs = b.values();
  Work worst = Work(0);
  std::size_t j = 0;  // last b-step with time <= t
  for (std::size_t i = 0; i < ats.size(); ++i) {
    if (avs[i] == Work(0)) continue;
    const Time t = max(Time(0), ats[i] - Time(1));
    if (t > upto) break;
    Work bv{0};
    if (t <= b.horizon()) {
      while (j + 1 < bts.size() && bts[j + 1] <= t) ++j;
      bv = bvs[j];
    } else {
      bv = b.value(t);  // tail fold (keeps the no-tail REQUIRE semantics)
    }
    if (avs[i] > bv) worst = max(worst, avs[i] - bv);
  }
  return worst;
}

std::optional<Time> first_catch_up(const Staircase& a, const Staircase& b) {
  const Time h = min(a.horizon(), b.horizon());
  // a(t) - b(t) changes only at breakpoints; between breakpoints both are
  // constant, so it suffices to test t = 1 and then every merged
  // breakpoint in (1, h], in increasing order.
  if (h < Time(1)) return std::nullopt;
  const std::size_t ia = soa_upper_bound(a.times(), Time(1));
  const std::size_t ib = soa_upper_bound(b.times(), Time(1));
  if (a.values()[ia - 1] <= b.values()[ib - 1]) return Time(1);
  std::optional<Time> found;
  merge_scan(a, b, h, [&](Time t, Work av, Work bv) {
    if (found || t <= Time(1)) return;
    if (av <= bv) found = t;
  });
  return found;
}

Staircase leftover_service(const Staircase& b, const Staircase& a) {
  const Time h = min(a.horizon(), b.horizon());
  CanonBuilder out;
  out.reserve(a.breakpoint_count() + b.breakpoint_count());
  Work best = Work(0);
  merge_scan(a, b, h, [&](Time t, Work av, Work bv) {
    if (bv > av) best = max(best, bv - av);
    out.sample(t, best);
  });
  return out.finish(h);
}

Staircase subadditive_closure(const Staircase& f) {
  STRT_REQUIRE(f.starts_at_zero(),
               "subadditive closure requires f(0) == 0");
  const obs::Span span("minplus.subadditive_closure");
  Staircase cur = f.without_tail();
  for (;;) {
    Staircase conv = minplus_conv(cur, cur).truncated(cur.horizon());
    Staircase next = pointwise_min(cur, conv);
    if (next == cur) return cur;
    cur = std::move(next);
  }
}

}  // namespace strt
