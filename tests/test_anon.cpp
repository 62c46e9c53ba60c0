#include "apps/anon.hpp"

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

using san::apps::AnonOptions;
using san::apps::AnonymousCommunication;
using san::graph::CsrGraph;
using san::graph::NodeId;
using san::stats::Rng;

CsrGraph complete(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) edges.emplace_back(u, v);
    }
  }
  return CsrGraph::from_edges(n, edges);
}

std::string construction_error(const CsrGraph& social,
                               const AnonOptions& options) {
  try {
    const AnonymousCommunication anon(social, options);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Anon, NoCompromiseNoAttack) {
  AnonOptions options;
  options.num_walks = 20'000;
  const AnonymousCommunication anon(complete(20), options);
  std::vector<std::uint8_t> flags(20, 0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(anon.timing_attack_probability(flags, rng), 0.0);
}

TEST(Anon, AllCompromisedAlwaysAttacked) {
  AnonOptions options;
  options.num_walks = 5'000;
  const AnonymousCommunication anon(complete(20), options);
  std::vector<std::uint8_t> flags(20, 1);
  Rng rng(2);
  // Initiators are sampled honest-only; with everyone compromised no walk
  // completes, so the probability conditional on completion is 0 by
  // convention — use all-but-one instead.
  std::vector<std::uint8_t> almost(20, 1);
  almost[0] = 0;
  const double p = anon.timing_attack_probability(almost, rng);
  EXPECT_GT(p, 0.85);
  (void)flags;
}

TEST(Anon, QuadraticScalingOnCompleteGraph) {
  // On a complete graph relays are uniform: p ~ f^2 for compromise
  // fraction f.
  AnonOptions options;
  options.num_walks = 200'000;
  options.walk_length = 4;
  const AnonymousCommunication anon(complete(50), options);
  std::vector<std::uint8_t> flags(50, 0);
  for (int i = 0; i < 10; ++i) flags[i] = 1;  // f = 0.2
  Rng rng(3);
  const double p = anon.timing_attack_probability(flags, rng);
  EXPECT_NEAR(p, 0.04, 0.012);
}

TEST(Anon, MoreCompromiseMoreAttack) {
  san::model::GeneratorParams params;
  params.social_node_count = 4'000;
  params.seed = 41;
  const auto snap = san::snapshot_full(san::model::generate_san(params));
  AnonOptions options;
  options.num_walks = 60'000;
  const AnonymousCommunication anon(snap.social, options);
  Rng rng_a(4), rng_b(4);
  const double p_small = anon.timing_attack_probability_uniform(100, rng_a);
  const double p_large = anon.timing_attack_probability_uniform(800, rng_b);
  EXPECT_GT(p_large, p_small);
}

TEST(Anon, ValidatesArguments) {
  AnonOptions options;
  options.walk_length = 1;
  EXPECT_THROW(AnonymousCommunication(complete(5), options),
               std::invalid_argument);
  options = {};
  options.num_walks = 0;
  EXPECT_THROW(AnonymousCommunication(complete(5), options),
               std::invalid_argument);

  const AnonymousCommunication anon(complete(5), {});
  std::vector<std::uint8_t> wrong(3, 0);
  Rng rng(1);
  EXPECT_THROW(anon.timing_attack_probability(wrong, rng),
               std::invalid_argument);
  EXPECT_THROW(anon.timing_attack_probability_uniform(50, rng),
               std::invalid_argument);
}

TEST(Anon, OptionsValidatedBeforeProjection) {
  AnonOptions short_walk;
  short_walk.walk_length = 1;
  AnonOptions no_walks;
  no_walks.num_walks = 0;
  EXPECT_EQ(construction_error(complete(5), short_walk),
            "AnonymousCommunication: walk_length >= 2");
  EXPECT_EQ(construction_error(complete(5), no_walks),
            "AnonymousCommunication: num_walks > 0");
  // The projection refuses a zero degree bound too; the options are
  // checked first, so their errors still win.
  short_walk.degree_bound = 0;
  no_walks.degree_bound = 0;
  EXPECT_EQ(construction_error(complete(5), short_walk),
            "AnonymousCommunication: walk_length >= 2");
  EXPECT_EQ(construction_error(complete(5), no_walks),
            "AnonymousCommunication: num_walks > 0");
}

}  // namespace
