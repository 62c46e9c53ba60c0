#include "apps/projection.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace san::apps {

using graph::NodeId;

std::span<const NodeId> SymmetricAdjacency::out(NodeId u) const {
  if (u >= node_count()) {
    throw std::out_of_range("SymmetricAdjacency: unknown node id");
  }
  return {targets_.data() + offsets_[u],
          static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
}

bool SymmetricAdjacency::has_edge(NodeId u, NodeId v) const {
  const auto o = out(u);
  return std::binary_search(o.begin(), o.end(), v);
}

SymmetricAdjacency degree_bounded_undirected(const graph::CsrGraph& social,
                                             std::size_t degree_bound) {
  if (degree_bound == 0) {
    throw std::invalid_argument("degree_bounded_undirected: bound must be > 0");
  }
  const std::size_t n = social.node_count();

  // The sorted neighbor view lists each undirected link {u, v} once from
  // either end; keeping v > u while u ascends visits the canonical pairs
  // in ascending (u, v) order, reciprocal directed pairs already merged.
  // The greedy degree cap admits links in exactly that order.
  SymmetricAdjacency projected;
  auto& offset = projected.offsets_;  // kept degree, then starts
  offset.assign(n + 1, 0);
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : social.neighbors(u)) {
      if (v <= u) continue;
      if (offset[u + 1] >= degree_bound || offset[v + 1] >= degree_bound) {
        continue;
      }
      ++offset[u + 1];
      ++offset[v + 1];
      kept.emplace_back(u, v);
    }
  }
  for (std::size_t u = 0; u < n; ++u) offset[u + 1] += offset[u];

  // Counting fill. Node x receives its w < x entries while w < x is
  // processed and its own v > x entries after them, each group ascending,
  // so every list comes out sorted.
  projected.targets_.resize(offset[n]);
  std::vector<std::uint64_t> cursor(offset.begin(), offset.end() - 1);
  for (const auto& [u, v] : kept) {
    projected.targets_[cursor[u]++] = v;
    projected.targets_[cursor[v]++] = u;
  }
  return projected;
}

}  // namespace san::apps
