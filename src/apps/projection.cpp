#include "apps/projection.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace san::apps {

graph::CsrGraph degree_bounded_undirected(const graph::CsrGraph& social,
                                          std::size_t degree_bound) {
  if (degree_bound == 0) {
    throw std::invalid_argument("degree_bounded_undirected: bound must be > 0");
  }
  using graph::NodeId;
  const std::size_t n = social.node_count();

  // The sorted neighbor view lists each undirected link {u, v} once from
  // either end; keeping v > u while u ascends visits the canonical pairs
  // in ascending (u, v) order, reciprocal directed pairs already merged.
  // The greedy degree cap admits links in exactly that order.
  std::vector<std::uint64_t> offset(n + 1, 0);  // kept degree, then starts
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

  // Counting fill of both directions. Node x receives its w < x entries
  // while w < x is processed and its own v > x entries after them, each
  // group ascending, so every list and the (src, dst) order come out sorted.
  std::vector<NodeId> srcs(offset[n]), dsts(offset[n]);
  std::vector<std::uint64_t> cursor(offset.begin(), offset.end() - 1);
  for (const auto& [u, v] : kept) {
    srcs[cursor[u]] = u;
    dsts[cursor[u]++] = v;
    srcs[cursor[v]] = v;
    dsts[cursor[v]++] = u;
  }
  graph::CsrGraph projected;
  projected.rebuild_from_sorted_edges(n, srcs, dsts);
  return projected;
}

}  // namespace san::apps
