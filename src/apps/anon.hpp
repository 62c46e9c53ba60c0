// Social-network anonymous communication (Fig 19b of the paper).
//
// Drac-style systems [11] pick relays by random walks on the social graph.
// A low-latency circuit is compromised by end-to-end timing analysis when
// both its first and last relays are adversary-controlled. We estimate that
// probability by Monte-Carlo: walks of the given length on the
// degree-bounded undirected social graph, compromised nodes sampled
// uniformly. The constructor validates the options before it builds the
// projection (apps/projection.hpp), whose symmetric adjacency is all the
// walks read.
#pragma once

#include <cstdint>
#include <span>

#include "apps/projection.hpp"
#include "graph/csr.hpp"
#include "stats/rng.hpp"

namespace san::apps {

struct AnonOptions {
  std::size_t degree_bound = 100;
  std::size_t walk_length = 5;    // circuit length in relays
  std::size_t num_walks = 200'000;
};

class AnonymousCommunication {
 public:
  AnonymousCommunication(const graph::CsrGraph& social,
                         const AnonOptions& options);

  const SymmetricAdjacency& topology() const { return topology_; }

  /// Probability that the first and last relays of a random-walk circuit
  /// are both compromised.
  double timing_attack_probability(
      std::span<const std::uint8_t> compromised_flags, stats::Rng& rng) const;

  /// Compromise `count` nodes uniformly at random, then estimate.
  double timing_attack_probability_uniform(std::size_t count,
                                           stats::Rng& rng) const;

 private:
  AnonOptions options_;  // declared first: validated before the build
  SymmetricAdjacency topology_;
};

}  // namespace san::apps
