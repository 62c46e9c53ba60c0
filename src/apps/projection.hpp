// Degree-bounded undirected projection of a directed social graph.
//
// Both application benchmarks of §6.2 (SybilLimit and the anonymity walk)
// run on the social structure with "an upper bound of 100 on the node
// degree", following the SybilLimit guidelines. This helper builds that
// symmetric, capped graph once so both apps share it.
//
// A symmetric graph's out, in and neighbor views are the same lists, and
// both apps only walk out(u), so the result keeps one view: one offsets
// array and one targets array.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace san::apps {

/// Immutable symmetric adjacency in CSR form: node u's neighbors, sorted
/// ascending, and v is listed at u iff u is listed at v. Only
/// degree_bounded_undirected builds one; a default-constructed adjacency
/// has no nodes.
class SymmetricAdjacency {
 public:
  std::size_t node_count() const { return offsets_.size() - 1; }
  /// Directed entries: two per undirected link.
  std::uint64_t edge_count() const { return targets_.size(); }

  /// Neighbors of u, ascending. Throws std::out_of_range for u >= n.
  std::span<const graph::NodeId> out(graph::NodeId u) const;
  std::size_t degree(graph::NodeId u) const { return out(u).size(); }
  /// Binary search in u's list.
  bool has_edge(graph::NodeId u, graph::NodeId v) const;

  /// n + 1 monotone entries, offsets()[0] == 0, back() == edge_count();
  /// out(u) spans targets [offsets()[u], offsets()[u + 1]).
  std::span<const std::uint64_t> offsets() const { return offsets_; }

 private:
  friend SymmetricAdjacency degree_bounded_undirected(
      const graph::CsrGraph& social, std::size_t degree_bound);

  std::vector<std::uint64_t> offsets_{0};
  std::vector<graph::NodeId> targets_;
};

/// Symmetric graph containing each undirected link {u, v} (in both
/// directions) for which neither endpoint has exhausted `degree_bound`.
/// Links are admitted in ascending (u, v) order, mirroring a deterministic
/// truncation of oversized adjacency lists. The build reads the input's
/// sorted neighbor view, runs the greedy cap, and fills the targets array
/// by counting: O(n + links), with no comparison sort.
SymmetricAdjacency degree_bounded_undirected(const graph::CsrGraph& social,
                                             std::size_t degree_bound);

}  // namespace san::apps
