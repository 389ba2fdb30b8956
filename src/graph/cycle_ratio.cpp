#include "graph/cycle_ratio.hpp"

#include <algorithm>
#include <vector>

#include "base/assert.hpp"
#include "base/checked.hpp"
#include "obs/counters.hpp"

namespace strt {

std::optional<Rational> utilization(const DrtTask& task) {
  if (!task.is_cyclic()) return std::nullopt;
  static obs::Counter& c_probes = obs::counter("utilization.probes");

  const std::size_t nv = task.vertex_count();
  const auto edges = task.edges();
  constexpr std::int32_t kNone = -1;
  std::vector<std::int64_t> w(edges.size());
  std::vector<std::int64_t> d(nv);
  std::vector<std::int32_t> parent(nv);  // edge index that last relaxed v
  const auto parent_of = [&](VertexId v) {
    const std::int32_t ei = parent[static_cast<std::size_t>(v)];
    STRT_ASSERT(ei != kNone, "parent chain left the cycle");
    return static_cast<std::size_t>(ei);
  };

  // Dinkelbach iteration from q = 0, below every cycle ratio (wcets >= 1).
  Rational q(0);
  for (;;) {
    c_probes.add(1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      w[i] = checked::sub(
          checked::mul(q.den(), task.vertex(edges[i].from).wcet.count()),
          checked::mul(q.num(), edges[i].separation.count()));
    }

    // Longest-path Bellman-Ford from a virtual source joined to every
    // vertex by a 0-weight edge: all distances start at 0, which also
    // makes every cycle reachable.
    std::fill(d.begin(), d.end(), 0);
    std::fill(parent.begin(), parent.end(), kNone);
    VertexId last = kNone;  // a vertex relaxed in the latest pass
    for (std::size_t pass = 0; pass < nv; ++pass) {
      last = kNone;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto u = static_cast<std::size_t>(edges[i].from);
        const auto v = static_cast<std::size_t>(edges[i].to);
        const std::int64_t cand = checked::add(d[u], w[i]);
        if (cand > d[v]) {
          d[v] = cand;
          parent[v] = static_cast<std::int32_t>(i);
          last = edges[i].to;
        }
      }
      if (last == kNone) return q;  // converged: no cycle beats q
    }

    // After V - 1 passes every distance covers all simple paths, so the
    // parent chain of a vertex relaxed in pass V closes a cycle within V
    // steps; every cycle of parent edges has positive weight, i.e. a
    // ratio above q.  Move q to that cycle's exact ratio.
    VertexId on_cycle = last;
    for (std::size_t k = 0; k < nv; ++k) {
      on_cycle = edges[parent_of(on_cycle)].from;
    }
    std::int64_t work = 0;
    std::int64_t sep = 0;
    std::int64_t weight = 0;
    VertexId v = on_cycle;
    do {
      const std::size_t ei = parent_of(v);
      v = edges[ei].from;
      work = checked::add(work, task.vertex(v).wcet.count());
      sep = checked::add(sep, edges[ei].separation.count());
      weight = checked::add(weight, w[ei]);
    } while (v != on_cycle);
    STRT_ASSERT(weight > 0, "a parent-edge cycle must beat the probed ratio");
    q = Rational(work, sep);
  }
}

}  // namespace strt
