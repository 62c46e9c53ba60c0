#include "apps/anon.hpp"

#include <stdexcept>
#include <vector>

namespace san::apps {
namespace {

const AnonOptions& validated(const AnonOptions& options) {
  if (options.walk_length < 2) {
    throw std::invalid_argument("AnonymousCommunication: walk_length >= 2");
  }
  if (options.num_walks == 0) {
    throw std::invalid_argument("AnonymousCommunication: num_walks > 0");
  }
  return options;
}

}  // namespace

AnonymousCommunication::AnonymousCommunication(const graph::CsrGraph& social,
                                               const AnonOptions& options)
    : options_(validated(options)),
      topology_(degree_bounded_undirected(social, options_.degree_bound)) {}

double AnonymousCommunication::timing_attack_probability(
    std::span<const std::uint8_t> compromised_flags, stats::Rng& rng) const {
  if (compromised_flags.size() != topology_.node_count()) {
    throw std::invalid_argument("timing_attack_probability: flag size "
                                "mismatch");
  }
  const std::size_t n = topology_.node_count();
  if (n == 0) return 0.0;

  std::uint64_t successes = 0;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < options_.num_walks; ++i) {
    // Initiator: a random honest user.
    graph::NodeId current =
        static_cast<graph::NodeId>(rng.uniform_index(n));
    if (compromised_flags[current]) continue;
    graph::NodeId first_relay = current;
    bool truncated = false;
    for (std::size_t step = 0; step < options_.walk_length; ++step) {
      const auto nbrs = topology_.out(current);
      if (nbrs.empty()) {
        truncated = true;
        break;
      }
      current = nbrs[rng.uniform_index(nbrs.size())];
      if (step == 0) first_relay = current;
    }
    if (truncated) continue;
    ++completed;
    if (compromised_flags[first_relay] && compromised_flags[current]) {
      ++successes;
    }
  }
  if (completed == 0) return 0.0;
  return static_cast<double>(successes) / static_cast<double>(completed);
}

double AnonymousCommunication::timing_attack_probability_uniform(
    std::size_t count, stats::Rng& rng) const {
  const std::size_t n = topology_.node_count();
  if (count > n) {
    throw std::invalid_argument("timing_attack_probability_uniform: count > n");
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
  return timing_attack_probability(flags, rng);
}

}  // namespace san::apps
