// SybilLimit [59] evaluation (Fig 19a of the paper).
//
// SybilLimit bounds the number of Sybil identities an adversary can get
// accepted to O(w) per attack edge, where w is the random-route length and
// an attack edge connects a compromised (adversary-controlled) user to an
// honest one. The paper's Fig 19a therefore plots
//     accepted Sybil identities  =  w × (number of attack edges)
// on the degree-bounded (cap 100) social graph, with compromised nodes
// sampled uniformly at random and w = 10.
//
// A random-route simulator (per-node pseudorandom permutation routing, the
// actual SybilLimit mechanism) is included for verification on small graphs.
//
// The constructor validates the options before it builds anything, then
// keeps only the degree-bounded projection (apps/projection.hpp): one
// symmetric offsets/targets adjacency, which is all evaluation and routing
// read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/projection.hpp"
#include "graph/csr.hpp"
#include "stats/rng.hpp"

namespace san::apps {

struct SybilLimitOptions {
  std::size_t degree_bound = 100;
  std::size_t route_length = 10;  // w
};

struct SybilLimitResult {
  std::uint64_t attack_edges = 0;
  double sybil_identities = 0.0;  // w * attack_edges
  std::size_t compromised = 0;

  bool operator==(const SybilLimitResult&) const = default;
};

class SybilLimit {
 public:
  /// Validates `options` (route_length > 0; degree_bound > 0 is checked by
  /// the projection), then builds the degree-bounded undirected topology
  /// once.
  SybilLimit(const graph::CsrGraph& social, const SybilLimitOptions& options);

  const SymmetricAdjacency& topology() const { return topology_; }

  /// Accepted-Sybil bound for an explicit compromised set (node flags).
  SybilLimitResult evaluate(
      std::span<const std::uint8_t> compromised_flags) const;

  /// Compromise `count` distinct nodes uniformly at random, then evaluate.
  SybilLimitResult evaluate_uniform(std::size_t count, stats::Rng& rng) const;

  /// Per-query entry point (the serving layer's `sybil T USER`): the
  /// adversary region is USER's closed neighborhood {USER} ∪ Γ(USER) in
  /// the degree-bounded topology, and the result is EXACTLY
  /// evaluate(flags) for flags marking that region — only computed by
  /// walking the region's adjacency instead of scanning every node.
  /// `flags`/`touched` are dense scratch (resized here, all-zero on entry,
  /// restored to all-zero on return) so a serving lane reuses capacity
  /// across queries. `user` must be < topology().node_count().
  SybilLimitResult evaluate_region(graph::NodeId user,
                                   std::vector<std::uint8_t>& flags,
                                   std::vector<graph::NodeId>& touched) const;

  /// One random route of length w from `start`, using per-node pseudorandom
  /// permutation routing keyed by `instance`; returns the visited nodes
  /// (route[0] == start). Routes are back-traceable as SybilLimit requires:
  /// the same instance yields converging routes.
  std::vector<graph::NodeId> random_route(graph::NodeId start,
                                          std::uint64_t instance) const;

 private:
  SybilLimitOptions options_;  // declared first: validated before the build
  SymmetricAdjacency topology_;
};

}  // namespace san::apps
