#include "apps/sybil.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace san::apps {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const SybilLimitOptions& validated(const SybilLimitOptions& options) {
  if (options.route_length == 0) {
    throw std::invalid_argument("SybilLimit: route_length must be > 0");
  }
  return options;
}

}  // namespace

SybilLimit::SybilLimit(const graph::CsrGraph& social,
                       const SybilLimitOptions& options)
    : options_(validated(options)),
      topology_(degree_bounded_undirected(social, options_.degree_bound)) {}

SybilLimitResult SybilLimit::evaluate(
    std::span<const std::uint8_t> compromised_flags) const {
  if (compromised_flags.size() != topology_.node_count()) {
    throw std::invalid_argument("SybilLimit::evaluate: flag size mismatch");
  }
  SybilLimitResult result;
  for (graph::NodeId u = 0; u < topology_.node_count(); ++u) {
    if (compromised_flags[u]) ++result.compromised;
  }
  // Attack edges: undirected links with exactly one compromised endpoint.
  // The topology stores each link in both directions, so count ordered
  // (compromised -> honest) links, which equals the undirected count.
  for (graph::NodeId u = 0; u < topology_.node_count(); ++u) {
    if (!compromised_flags[u]) continue;
    for (const graph::NodeId v : topology_.out(u)) {
      if (!compromised_flags[v]) ++result.attack_edges;
    }
  }
  result.sybil_identities = static_cast<double>(options_.route_length) *
                            static_cast<double>(result.attack_edges);
  return result;
}

SybilLimitResult SybilLimit::evaluate_uniform(std::size_t count,
                                              stats::Rng& rng) const {
  const std::size_t n = topology_.node_count();
  if (count > n) {
    throw std::invalid_argument("SybilLimit: more compromised nodes than "
                                "nodes");
  }
  std::vector<std::uint8_t> flags(n, 0);
  std::size_t chosen = 0;
  while (chosen < count) {
    const auto u = static_cast<std::size_t>(rng.uniform_index(n));
    if (!flags[u]) {
      flags[u] = 1;
      ++chosen;
    }
  }
  return evaluate(flags);
}

SybilLimitResult SybilLimit::evaluate_region(
    graph::NodeId user, std::vector<std::uint8_t>& flags,
    std::vector<graph::NodeId>& touched) const {
  const std::size_t n = topology_.node_count();
  if (user >= n) {
    throw std::invalid_argument("SybilLimit::evaluate_region: unknown user");
  }
  if (flags.size() < n) flags.resize(n, 0);
  touched.clear();
  const auto mark = [&](graph::NodeId u) {
    if (!flags[u]) {
      flags[u] = 1;
      touched.push_back(u);
    }
  };
  mark(user);
  for (const graph::NodeId v : topology_.out(user)) mark(v);

  SybilLimitResult result;
  result.compromised = touched.size();
  // Attack edges: ordered (compromised -> honest) links, walking only the
  // region's adjacency — identical to evaluate()'s whole-network count
  // because links from honest nodes never contribute there either.
  for (const graph::NodeId u : touched) {
    for (const graph::NodeId v : topology_.out(u)) {
      if (!flags[v]) ++result.attack_edges;
    }
  }
  result.sybil_identities = static_cast<double>(options_.route_length) *
                            static_cast<double>(result.attack_edges);
  for (const graph::NodeId u : touched) flags[u] = 0;
  touched.clear();
  return result;
}

std::vector<graph::NodeId> SybilLimit::random_route(
    graph::NodeId start, std::uint64_t instance) const {
  std::vector<graph::NodeId> route;
  route.push_back(start);
  graph::NodeId current = start;
  // Entry index kUnset means "route originated here".
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::size_t entry = kUnset;
  for (std::size_t step = 0; step < options_.route_length; ++step) {
    const auto nbrs = topology_.out(current);
    if (nbrs.empty()) break;
    const std::size_t d = nbrs.size();
    // Pseudorandom permutation pi of [0, d): a Feistel-free degree-keyed
    // affine map (a * i + b mod d) with a coprime to d — enough structure
    // for permutation routing and cheap to evaluate.
    const std::uint64_t key =
        mix(instance ^ (static_cast<std::uint64_t>(current) << 20));
    std::uint64_t a = 1 + 2 * (key % d);  // odd -> coprime when d is a power
    while (std::gcd(a, static_cast<std::uint64_t>(d)) != 1) ++a;
    const std::uint64_t b = mix(key) % d;
    const std::size_t in_idx = entry == kUnset ? mix(key ^ 0x5a5a) % d : entry;
    const std::size_t out_idx = static_cast<std::size_t>((a * in_idx + b) % d);
    const graph::NodeId next = nbrs[out_idx];
    // Record the reverse-edge index at the next node to keep routes
    // convergent (the SybilLimit back-traceability property).
    const auto next_nbrs = topology_.out(next);
    const auto it = std::lower_bound(next_nbrs.begin(), next_nbrs.end(),
                                     current);
    entry = static_cast<std::size_t>(it - next_nbrs.begin());
    current = next;
    route.push_back(current);
  }
  return route;
}

}  // namespace san::apps
