#include "graph/drt.hpp"

#include <algorithm>
#include <ostream>

#include "base/assert.hpp"
#include "base/hash.hpp"

namespace strt {

const DrtVertex& DrtTask::vertex(VertexId v) const {
  STRT_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vertices_.size(),
               "vertex id out of range");
  return vertices_[static_cast<std::size_t>(v)];
}

std::span<const std::int32_t> DrtTask::out_edges(VertexId v) const {
  STRT_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vertices_.size(),
               "vertex id out of range");
  const auto lo = static_cast<std::size_t>(out_index_[static_cast<std::size_t>(v)]);
  const auto hi =
      static_cast<std::size_t>(out_index_[static_cast<std::size_t>(v) + 1]);
  return {out_edges_.data() + lo, hi - lo};
}

Work DrtTask::max_wcet() const {
  Work m = Work(0);
  for (const DrtVertex& v : vertices_) m = max(m, v.wcet);
  return m;
}

bool DrtTask::has_frame_separation() const {
  for (const DrtEdge& e : edges_) {
    if (vertex(e.from).deadline > e.separation) return false;
  }
  return true;
}

bool DrtTask::is_cyclic() const {
  // Iterative three-color DFS over the CSR adjacency.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(vertex_count(), Color::kWhite);
  std::vector<std::pair<VertexId, std::size_t>> stack;
  for (VertexId s = 0; static_cast<std::size_t>(s) < vertex_count(); ++s) {
    if (color[static_cast<std::size_t>(s)] != Color::kWhite) continue;
    stack.emplace_back(s, 0);
    color[static_cast<std::size_t>(s)] = Color::kGray;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto out = out_edges(v);
      if (next < out.size()) {
        const VertexId u = edges_[static_cast<std::size_t>(out[next])].to;
        ++next;
        auto& cu = color[static_cast<std::size_t>(u)];
        if (cu == Color::kGray) return true;
        if (cu == Color::kWhite) {
          cu = Color::kGray;
          stack.emplace_back(u, 0);
        }
      } else {
        color[static_cast<std::size_t>(v)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

DrtBuilder::DrtBuilder(std::string name) : name_(std::move(name)) {}

VertexId DrtBuilder::add_vertex(std::string name, Work wcet, Time deadline) {
  STRT_REQUIRE(wcet >= Work(1), "vertex wcet must be >= 1");
  STRT_REQUIRE(deadline >= Time(1), "vertex deadline must be >= 1");
  vertices_.push_back(DrtVertex{std::move(name), wcet, deadline});
  return static_cast<VertexId>(vertices_.size() - 1);
}

DrtBuilder& DrtBuilder::add_edge(VertexId from, VertexId to, Time separation) {
  STRT_REQUIRE(separation >= Time(1), "edge separation must be >= 1");
  const auto n = static_cast<std::int64_t>(vertices_.size());
  STRT_REQUIRE(from >= 0 && from < n, "edge source out of range");
  STRT_REQUIRE(to >= 0 && to < n, "edge target out of range");
  edges_.push_back(DrtEdge{from, to, separation});
  return *this;
}

DrtTask DrtBuilder::build() && {
  STRT_REQUIRE(!vertices_.empty(), "a DRT task needs at least one vertex");
  DrtTask task;
  task.name_ = std::move(name_);
  task.vertices_ = std::move(vertices_);
  task.edges_ = std::move(edges_);

  const std::size_t nv = task.vertices_.size();
  task.out_index_.assign(nv + 1, 0);
  for (const DrtEdge& e : task.edges_) {
    ++task.out_index_[static_cast<std::size_t>(e.from) + 1];
  }
  for (std::size_t i = 1; i <= nv; ++i) {
    task.out_index_[i] += task.out_index_[i - 1];
  }
  task.out_edges_.resize(task.edges_.size());
  std::vector<std::int32_t> cursor(task.out_index_.begin(),
                                   task.out_index_.end() - 1);
  for (std::size_t i = 0; i < task.edges_.size(); ++i) {
    const auto v = static_cast<std::size_t>(task.edges_[i].from);
    task.out_edges_[static_cast<std::size_t>(cursor[v]++)] =
        static_cast<std::int32_t>(i);
  }

  std::uint64_t fp = mix64(0x537472745461736bULL);  // "StrtTask"
  fp = hash_combine(fp, task.vertices_.size());
  for (const DrtVertex& v : task.vertices_) {
    fp = hash_combine(fp, static_cast<std::uint64_t>(v.wcet.count()));
    fp = hash_combine(fp, static_cast<std::uint64_t>(v.deadline.count()));
  }
  fp = hash_combine(fp, task.edges_.size());
  for (const DrtEdge& e : task.edges_) {
    fp = hash_combine(fp, static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(e.from)));
    fp = hash_combine(fp, static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(e.to)));
    fp = hash_combine(fp, static_cast<std::uint64_t>(e.separation.count()));
  }
  task.fingerprint_ = fp;
  return task;
}

std::ostream& operator<<(std::ostream& os, const DrtTask& task) {
  os << "DrtTask " << task.name() << " {";
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    const DrtVertex& vert = task.vertex(v);
    os << ' ' << vert.name << "(e=" << vert.wcet << ",d=" << vert.deadline
       << ')';
  }
  os << " |";
  for (const DrtEdge& e : task.edges()) {
    os << ' ' << task.vertex(e.from).name << "->" << task.vertex(e.to).name
       << '[' << e.separation << ']';
  }
  return os << " }";
}

}  // namespace strt
