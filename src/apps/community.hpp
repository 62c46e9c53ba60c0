// Community detection on SANs — the application the paper motivates in
// §3.4 ("the community structure among users' friends is highly dynamic,
// which inspires us to do dynamic community detection") and via [62]
// (structural/attribute clustering).
//
// Implementation: asynchronous, random-order label propagation (Raghavan et
// al., Phys. Rev. E 76, 2007) over the undirected social view — each sweep
// visits the nodes in a freshly shuffled order and a node adopts its
// neighbors' most-voted current label at once. An attribute-aware variant
// also propagates labels through shared attributes (each attribute
// community votes with a weight that shrinks with its size, so "city"
// mega-attributes don't glue the graph together). Votes tally in a dense
// per-label array, so one sweep costs at most O(n + links); the
// attribute-aware variant adds the sum over attributes of members^2. A
// sweep skips nodes none of whose voters relabeled since their last visit
// (they would keep their label), so late sweeps cost far less.
#pragma once

#include <cstdint>
#include <vector>

#include "san/snapshot.hpp"
#include "stats/rng.hpp"

namespace san::apps {

struct CommunityOptions {
  int max_iterations = 32;
  /// Weight multiplier for votes arriving through a shared attribute of m
  /// members: attribute_weight / m per co-member. 0 disables the SAN part
  /// (plain label propagation).
  double attribute_weight = 0.0;
  std::uint64_t seed = 1;
};

struct CommunityResult {
  std::vector<std::uint32_t> label;  // community id per social node (dense)
  std::size_t community_count = 0;
  int iterations = 0;
};

/// Label propagation (social links only when options.attribute_weight == 0,
/// otherwise SAN-aware).
CommunityResult detect_communities(const SanSnapshot& snap,
                                   const CommunityOptions& options = {});

/// Newman modularity of a labeling on the undirected social view (each
/// directed link counted once per direction).
double modularity(const SanSnapshot& snap,
                  const std::vector<std::uint32_t>& label);

/// Normalized mutual information between two labelings (for recovering
/// planted attribute communities in tests/benches).
double normalized_mutual_information(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b);

}  // namespace san::apps
