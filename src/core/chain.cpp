#include "core/chain.hpp"

#include "base/assert.hpp"
#include "core/busy_window.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "graph/workload.hpp"

namespace strt {

namespace {

/// Tighter than the default guard: the workload curve is materialized
/// on (hops + 1) times the base horizon.
constexpr std::int64_t kChainHorizonGuard = std::int64_t{1} << 30;

/// One attempt at a fixed horizon; nullopt = not enough horizon yet.
std::optional<ChainResult> try_chain(engine::Workspace& ws,
                                     const DrtTask& task,
                                     std::span<const Supply> hops,
                                     const StructuralOptions& opts,
                                     Time horizon) {
  // The per-hop propagation consumes one beta horizon per hop, so the
  // workload curve is materialized on hops.size() + 1 times the base.
  const auto n = static_cast<std::int64_t>(hops.size());
  const Time alpha_horizon = horizon * (n + 1);
  const engine::CurvePtr alpha0 = ws.rbf(task, alpha_horizon);

  // --- Convolved service, exact on [0, horizon].
  engine::CurvePtr conv = ws.sbf(hops[0], horizon);
  for (std::size_t i = 1; i < hops.size(); ++i) {
    conv = ws.intern(
        ws.minplus_conv(*conv, *ws.sbf(hops[i], horizon))->truncated(horizon));
  }
  const Staircase alpha_base = alpha0->truncated(horizon);
  const std::optional<Time> L = first_catch_up(alpha_base, *conv);
  if (!L || *L * 2 > horizon) return std::nullopt;

  ChainResult res;
  res.busy_window = *L;
  res.pboo = hdev(alpha_base.truncated(*L), *conv);

  const StructuralResult st = structural_delay_vs(ws, task, *conv, opts);
  res.structural = st.delay;

  // --- Compositional per-hop analysis with propagated arrivals.
  Staircase alpha = *alpha0;
  Time sum(0);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const engine::CurvePtr beta_ptr = ws.sbf(hops[i], horizon);
    const Staircase& beta = *beta_ptr;
    const std::optional<Time> Li =
        first_catch_up(alpha.truncated(min(alpha.horizon(), horizon)), beta);
    if (!Li || *Li * 2 > horizon) return std::nullopt;
    const Time d = hdev(alpha.truncated(*Li), beta);
    if (d.is_unbounded()) return std::nullopt;
    res.hop_delays.push_back(d);
    sum += d;
    if (i + 1 < hops.size()) {
      alpha = output_arrival(alpha, beta);
    }
  }
  res.per_hop_sum = sum;
  return res;
}

}  // namespace

Staircase output_arrival(const Staircase& alpha, const Staircase& beta) {
  STRT_REQUIRE(alpha.horizon() >= beta.horizon() * 2,
               "output_arrival needs alpha materialized to at least twice "
               "beta's horizon");
  const std::optional<Time> L =
      first_catch_up(alpha.truncated(beta.horizon()), beta);
  STRT_REQUIRE(L.has_value(),
               "output_arrival: no busy-window closure within beta's "
               "horizon; extend the curves");
  const Time delay = hdev(alpha.truncated(*L), beta);
  STRT_ASSERT(!delay.is_unbounded(), "finite busy window implies a finite "
                                     "delay");
  // alpha'(t) = alpha(t + D): shift the steps left by D.
  const Time horizon = alpha.horizon() - beta.horizon();
  std::vector<Step> pts;
  for (const Step& s : alpha.steps()) {
    const Time t = s.time - delay;
    if (t > horizon) break;
    pts.push_back(Step{max(Time(0), t), s.value});
  }
  return Staircase::from_points(std::move(pts), horizon);
}

ChainResult chain_delay(engine::Workspace& ws, const DrtTask& task,
                        std::span<const Supply> hops,
                        const StructuralOptions& opts) {
  STRT_REQUIRE(!hops.empty(), "a chain needs at least one hop");
  ChainResult overload;
  overload.overloaded = true;
  overload.structural = Time::unbounded();
  overload.pboo = Time::unbounded();
  overload.per_hop_sum = Time::unbounded();
  overload.busy_window = Time::unbounded();

  const std::optional<Rational> util = ws.utilization(task);
  if (util) {
    for (const Supply& s : hops) {
      if (*util >= s.long_run_rate()) return overload;
    }
  }

  Time horizon(64);
  for (const Supply& s : hops) horizon = max(horizon, s.min_horizon());
  for (;;) {
    if (std::optional<ChainResult> res =
            try_chain(ws, task, hops, opts, horizon)) {
      return *res;
    }
    horizon = next_horizon(horizon, "chain_delay", kChainHorizonGuard);
  }
}

}  // namespace strt
