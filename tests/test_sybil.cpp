#include "apps/sybil.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "model/generator.hpp"
#include "san/snapshot.hpp"
#include "stats/rng.hpp"

namespace {

using san::apps::SybilLimit;
using san::apps::SybilLimitOptions;
using san::graph::CsrGraph;
using san::graph::NodeId;
using san::stats::Rng;

CsrGraph ring(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    edges.emplace_back(u, (u + 1) % n);
    edges.emplace_back((u + 1) % n, u);
  }
  return CsrGraph::from_edges(n, edges);
}

std::string construction_error(const CsrGraph& social,
                               const SybilLimitOptions& options) {
  try {
    const SybilLimit sybil(social, options);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Sybil, AttackEdgesCountedOnce) {
  // Ring of 6 with nodes {0} compromised: two attack edges (to 1 and 5).
  const SybilLimit sybil(ring(6), {});
  std::vector<std::uint8_t> flags(6, 0);
  flags[0] = 1;
  const auto result = sybil.evaluate(flags);
  EXPECT_EQ(result.attack_edges, 2u);
  EXPECT_DOUBLE_EQ(result.sybil_identities, 20.0);  // w = 10
  EXPECT_EQ(result.compromised, 1u);
}

TEST(Sybil, AdjacentCompromisedShareNoAttackEdge) {
  const SybilLimit sybil(ring(6), {});
  std::vector<std::uint8_t> flags(6, 0);
  flags[0] = flags[1] = 1;
  const auto result = sybil.evaluate(flags);
  EXPECT_EQ(result.attack_edges, 2u);  // only 5-0 and 1-2 cross the boundary
}

TEST(Sybil, RouteLengthScalesIdentities) {
  SybilLimitOptions options;
  options.route_length = 25;
  const SybilLimit sybil(ring(8), options);
  std::vector<std::uint8_t> flags(8, 0);
  flags[3] = 1;
  EXPECT_DOUBLE_EQ(sybil.evaluate(flags).sybil_identities, 50.0);
}

TEST(Sybil, UniformEvaluationScalesWithCompromise) {
  san::model::GeneratorParams params;
  params.social_node_count = 5'000;
  params.seed = 33;
  const auto snap = san::snapshot_full(san::model::generate_san(params));
  const SybilLimit sybil(snap.social, {});
  Rng rng(1);
  const auto small = sybil.evaluate_uniform(50, rng);
  const auto large = sybil.evaluate_uniform(500, rng);
  EXPECT_GT(large.attack_edges, small.attack_edges);
  // Roughly linear in the compromised fraction at small fractions.
  const double ratio = static_cast<double>(large.attack_edges) /
                       static_cast<double>(small.attack_edges);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(Sybil, DegreeBoundCapsAttackSurface) {
  san::model::GeneratorParams params;
  params.social_node_count = 5'000;
  params.seed = 35;
  const auto snap = san::snapshot_full(san::model::generate_san(params));
  SybilLimitOptions tight, loose;
  tight.degree_bound = 10;
  loose.degree_bound = 1'000;
  const SybilLimit sybil_tight(snap.social, tight);
  const SybilLimit sybil_loose(snap.social, loose);
  Rng rng_a(2), rng_b(2);
  EXPECT_LT(sybil_tight.evaluate_uniform(300, rng_a).attack_edges,
            sybil_loose.evaluate_uniform(300, rng_b).attack_edges);
}

TEST(Sybil, RandomRoutesHaveRequestedLength) {
  const SybilLimit sybil(ring(16), {});
  const auto route = sybil.random_route(3, 7);
  EXPECT_EQ(route.size(), 11u);  // start + w hops
  EXPECT_EQ(route.front(), 3u);
  // Each consecutive pair must be an edge of the topology.
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    EXPECT_TRUE(sybil.topology().has_edge(route[i], route[i + 1]));
  }
}

TEST(Sybil, RoutesDeterministicPerInstance) {
  const SybilLimit sybil(ring(16), {});
  EXPECT_EQ(sybil.random_route(3, 7), sybil.random_route(3, 7));
  EXPECT_NE(sybil.random_route(3, 7), sybil.random_route(3, 8));
}

TEST(Sybil, ValidatesInput) {
  const SybilLimit sybil(ring(6), {});
  std::vector<std::uint8_t> wrong_size(5, 0);
  EXPECT_THROW(sybil.evaluate(wrong_size), std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW(sybil.evaluate_uniform(100, rng), std::invalid_argument);
  SybilLimitOptions bad;
  bad.route_length = 0;
  EXPECT_THROW(SybilLimit(ring(6), bad), std::invalid_argument);
}

TEST(Sybil, RouteLengthValidatedBeforeProjection) {
  SybilLimitOptions bad;
  bad.route_length = 0;
  EXPECT_EQ(construction_error(ring(6), bad),
            "SybilLimit: route_length must be > 0");
  // The projection refuses a zero degree bound too; the options are
  // checked first, so the route-length error still wins.
  bad.degree_bound = 0;
  EXPECT_EQ(construction_error(ring(6), bad),
            "SybilLimit: route_length must be > 0");
}

}  // namespace
