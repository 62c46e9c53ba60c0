#include "apps/projection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "stats/rng.hpp"

namespace {

using san::apps::degree_bounded_undirected;
using san::apps::SymmetricAdjacency;
using san::graph::CsrGraph;
using san::graph::NodeId;

/// The comparison-sort formulation the shipped projection replaced:
/// gather canonical (u < v) pairs from the out lists (has_edge dedups
/// reciprocal pairs), sort + unique, admit greedily, then canonicalize
/// both directions again through from_edges. Kept as the identity oracle.
CsrGraph reference_projection(const CsrGraph& social,
                              std::size_t degree_bound) {
  if (degree_bound == 0) throw std::invalid_argument("bound must be > 0");
  const std::size_t n = social.node_count();
  std::vector<std::pair<NodeId, NodeId>> undirected;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : social.out(u)) {
      if (u < v) {
        undirected.emplace_back(u, v);
      } else if (!social.has_edge(v, u)) {
        undirected.emplace_back(v, u);
      }
    }
  }
  std::sort(undirected.begin(), undirected.end());
  undirected.erase(std::unique(undirected.begin(), undirected.end()),
                   undirected.end());
  std::vector<std::size_t> degree(n, 0);
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (const auto& [u, v] : undirected) {
    if (degree[u] >= degree_bound || degree[v] >= degree_bound) continue;
    ++degree[u];
    ++degree[v];
    kept.emplace_back(u, v);
    kept.emplace_back(v, u);
  }
  return CsrGraph::from_edges(n, kept);
}

/// Seeded digraph mixing reciprocal pairs, one-way links in both id
/// directions, a few hubs linked to a large share of the nodes (above a
/// bound of 100 at this size) and nodes left isolated.
CsrGraph random_digraph(std::size_t n, std::uint64_t seed) {
  san::stats::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (n < 2) return CsrGraph::from_edges(n, edges);
  const std::size_t isolated = n / 10;  // ids [n - isolated, n) stay bare
  const std::size_t live = n - isolated;
  const auto pick = [&] {
    return static_cast<NodeId>(rng.uniform_index(live));
  };
  for (std::size_t i = 0; i < 3 * live; ++i) {
    const NodeId u = pick();
    const NodeId v = pick();
    if (u == v) continue;
    edges.emplace_back(u, v);
    if (rng.bernoulli(0.3)) edges.emplace_back(v, u);  // reciprocal pair
  }
  for (NodeId hub = 0; hub < std::min<std::size_t>(3, live); ++hub) {
    for (NodeId v = 0; v < live; ++v) {
      if (v == hub || !rng.bernoulli(0.6)) continue;
      // Hub links point both out of and into the hub.
      if (rng.bernoulli(0.5)) {
        edges.emplace_back(hub, v);
      } else {
        edges.emplace_back(v, hub);
      }
    }
  }
  return CsrGraph::from_edges(n, edges);
}

/// Each node's projected list must equal the reference's out, in and
/// neighbors views (a symmetric graph has one list per node, so this checks
/// symmetry rather than assuming it), and the layout must be one dense
/// CSR: n + 1 monotone offsets from 0 to edge_count(), lists strictly
/// ascending.
void expect_matches_reference(const SymmetricAdjacency& got,
                              const CsrGraph& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  const auto offsets = got.offsets();
  ASSERT_EQ(offsets.size(), want.node_count() + 1);
  ASSERT_EQ(offsets.front(), 0u);
  ASSERT_EQ(offsets.back(), got.edge_count());
  for (NodeId u = 0; u < want.node_count(); ++u) {
    ASSERT_LE(offsets[u], offsets[u + 1]) << "offsets at node " << u;
    const auto list = got.out(u);
    ASSERT_EQ(list.size(), offsets[u + 1] - offsets[u]);
    ASSERT_EQ(list.size(), got.degree(u));
    ASSERT_TRUE(std::adjacent_find(list.begin(), list.end(),
                                   std::greater_equal<>()) == list.end())
        << "list of node " << u << " not strictly ascending";
    const std::pair<const char*, std::span<const NodeId>> views[] = {
        {"out", want.out(u)},
        {"in", want.in(u)},
        {"neighbors", want.neighbors(u)}};
    for (const auto& [name, ref] : views) {
      ASSERT_TRUE(std::equal(list.begin(), list.end(), ref.begin(), ref.end()))
          << name << " of node " << u;
    }
  }
}

TEST(Projection, SymmetricOutput) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {2, 1}, {2, 3}};
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(4, edges), 100);
  for (NodeId u = 0; u < 4; ++u) {
    for (const NodeId v : g.out(u)) {
      EXPECT_TRUE(g.has_edge(v, u)) << u << "->" << v;
    }
  }
  EXPECT_EQ(g.edge_count(), 6u);  // 3 undirected links, both directions
}

TEST(Projection, ReciprocalPairBecomesOneLink) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 0}};
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(2, edges), 100);
  EXPECT_EQ(g.edge_count(), 2u);  // single undirected link
}

TEST(Projection, DegreeBoundEnforced) {
  // Star with 10 leaves, bound 4: hub keeps at most 4 links.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(11, edges), 4);
  EXPECT_EQ(g.degree(0), 4u);
  for (NodeId v = 1; v <= 10; ++v) EXPECT_LE(g.degree(v), 1u);
}

TEST(Projection, BoundLargeEnoughKeepsEverything) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(11, edges), 10);
  EXPECT_EQ(g.degree(0), 10u);
}

TEST(Projection, ZeroBoundThrows) {
  const auto g = CsrGraph::from_edges(2, {{std::pair<NodeId, NodeId>{0, 1}}});
  EXPECT_THROW(degree_bounded_undirected(g, 0), std::invalid_argument);
}

TEST(Projection, DeterministicAdmission) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 8; ++v) edges.emplace_back(0, v);
  const auto a = degree_bounded_undirected(CsrGraph::from_edges(9, edges), 3);
  const auto b = degree_bounded_undirected(CsrGraph::from_edges(9, edges), 3);
  ASSERT_EQ(a.degree(0), b.degree(0));
  const auto sa = a.out(0);
  const auto sb = b.out(0);
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
}

TEST(Projection, IdenticalToSortingFormulationOnRandomDigraphs) {
  std::uint64_t seed = 11;
  for (const std::size_t n : {0u, 1u, 2u, 17u, 250u, 400u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const CsrGraph social = random_digraph(n, ++seed);
      for (const std::size_t bound : {1u, 3u, 100u}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " seed=" << seed << " bound=" << bound);
        expect_matches_reference(degree_bounded_undirected(social, bound),
                                 reference_projection(social, bound));
      }
    }
  }
}

TEST(Projection, RandomDigraphsExerciseTheBoundAndIsolatedNodes) {
  // Guards the identity test's inputs: at bound 100 some hub is truncated,
  // and the isolated tail stays empty.
  const CsrGraph social = random_digraph(400, 12);
  EXPECT_GT(social.degree(0), 100u);
  const SymmetricAdjacency projected =
      degree_bounded_undirected(social, 100);
  EXPECT_EQ(projected.degree(0), 100u);
  EXPECT_EQ(social.degree(399), 0u);
  EXPECT_EQ(projected.degree(399), 0u);
}

}  // namespace
