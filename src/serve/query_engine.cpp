#include "serve/query_engine.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/parallel.hpp"
#include "core/simd/simd.hpp"
#include "obs/trace.hpp"

namespace san::serve {
namespace {

/// Per-lane execution state: the apps' dense-array scratch plus reusable
/// ego-metrics flags. Thread-local so a serving loop allocates only while
/// the arrays are still growing; every helper restores the all-zero
/// invariant, so reuse cannot leak state between queries (which is what
/// keeps batch results byte-identical at any thread count).
struct ServeScratch {
  apps::RecommendScratch recommend;
  apps::InferenceScratch inference;
  std::vector<std::uint8_t> sybil_flags;     // all-zero between queries
  std::vector<NodeId> sybil_touched;
  apps::InfluenceScratch influence;
};

/// The derived-state handles one snapshot group executes against —
/// resolved through the cache's derived slots once per group, only for
/// the kinds the group actually contains.
struct DerivedHandles {
  std::shared_ptr<const apps::SybilLimit> sybil;
  std::shared_ptr<const CommunityState> community;
  std::shared_ptr<const InfluenceState> influence;
};

DerivedHandles resolve_derived(SnapshotCache& cache,
                               const std::shared_ptr<const SanSnapshot>& snap,
                               const QueryEngineOptions& options,
                               bool need_sybil, bool need_community,
                               bool need_influence) {
  DerivedHandles handles;
  if (need_sybil) {
    handles.sybil = cache.derived().sybil(snap, options.derived.sybil);
  }
  if (need_community) {
    handles.community =
        cache.derived().community(snap, options.derived.community);
  }
  if (need_influence) handles.influence = cache.derived().influence(snap);
  return handles;
}

ServeScratch& lane_scratch() {
  thread_local ServeScratch scratch;
  return scratch;
}

EgoMetrics ego_metrics(const SanSnapshot& snap, NodeId u,
                       apps::RecommendScratch& scratch) {
  EgoMetrics m;
  const auto& g = snap.social;
  m.out_degree = g.out_degree(u);
  m.in_degree = g.in_degree(u);
  m.degree = g.degree(u);
  m.attribute_count = snap.attributes_of(u).size();
  // v reciprocal iff v ∈ out(u) ∩ in(u) — one intersection instead of a
  // binary search per out-neighbor.
  m.mutual_degree = core::simd::intersect_count(g.out(u), g.in(u));

  // Distinct nodes at distance exactly 2 over the undirected view, via the
  // same dense seen/excluded flags the recommender uses.
  const std::size_t n = snap.social_node_count();
  if (scratch.seen.size() < n) {
    scratch.score.resize(n, 0.0);
    scratch.seen.resize(n, 0);
    scratch.excluded.resize(n, 0);
  }
  scratch.touched.clear();
  const auto ego_neighbors = g.neighbors(u);
  scratch.excluded[u] = 1;
  for (const NodeId w : ego_neighbors) scratch.excluded[w] = 1;
  for (const NodeId w : ego_neighbors) {
    for (const NodeId c : g.neighbors(w)) {
      if (scratch.seen[c]) continue;
      scratch.seen[c] = 1;
      scratch.touched.push_back(c);
      if (!scratch.excluded[c]) ++m.two_hop_count;
    }
  }
  for (const NodeId c : scratch.touched) scratch.seen[c] = 0;
  for (const NodeId w : ego_neighbors) scratch.excluded[w] = 0;
  scratch.excluded[u] = 0;
  return m;
}

QueryResult execute(const SanSnapshot& snap, const Query& query,
                    const QueryEngineOptions& options,
                    const DerivedHandles& derived, ServeScratch& scratch) {
  QueryResult result;
  result.kind = query.kind;
  const std::size_t n = snap.social_node_count();
  if (query.user >= n ||
      (query.kind == QueryKind::kReciprocity && query.other >= n)) {
    return result;  // ok stays false: subject unknown at this snapshot
  }
  if (query.kind == QueryKind::kInfluence) {
    for (const NodeId s : query.seeds) {
      if (s >= n) return result;  // ok stays false: unknown seed
    }
  }
  result.ok = true;
  switch (query.kind) {
    case QueryKind::kLinkRec:
      apps::recommend_friends_into(snap, query.user, query.k,
                                   options.link_weights, scratch.recommend,
                                   result.recommendations);
      break;
    case QueryKind::kAttrInfer: {
      auto inference = options.inference;
      inference.top_k = query.k;
      apps::rank_attribute_candidates(snap, query.user,
                                      apps::kNoHeldOutAttribute, inference,
                                      scratch.inference, result.predictions);
      break;
    }
    case QueryKind::kEgoMetrics:
      result.ego = ego_metrics(snap, query.user, scratch.recommend);
      break;
    case QueryKind::kReciprocity:
      result.reciprocity = apps::score_reciprocity(
          snap, query.user, query.other, options.reciprocity_weights);
      result.link_present = snap.social.has_edge(query.user, query.other);
      result.already_mutual =
          result.link_present && snap.social.has_edge(query.other, query.user);
      break;
    case QueryKind::kSybil:
      result.sybil = derived.sybil->evaluate_region(
          query.user, scratch.sybil_flags, scratch.sybil_touched);
      break;
    case QueryKind::kCommunity: {
      const CommunityState& state = *derived.community;
      result.community.label = state.result.label[query.user];
      result.community.size = state.size[result.community.label];
      result.community.communities = state.result.community_count;
      break;
    }
    case QueryKind::kInfluence:
      result.influence = apps::influence_maximize(
          snap.social, query.seeds, query.k, scratch.influence,
          derived.influence->first_pick);
      break;
  }
  return result;
}

/// Which derived kinds a span of admission indices needs.
void scan_needs(std::span<const Query> queries,
                std::span<const std::uint32_t> indices, bool& need_sybil,
                bool& need_community, bool& need_influence) {
  need_sybil = need_community = need_influence = false;
  for (const std::uint32_t i : indices) {
    switch (queries[i].kind) {
      case QueryKind::kSybil:
        need_sybil = true;
        break;
      case QueryKind::kCommunity:
        need_community = true;
        break;
      case QueryKind::kInfluence:
        need_influence = true;
        break;
      default:
        break;
    }
  }
}

}  // namespace

QueryEngine::QueryEngine(SnapshotCache& cache, QueryEngineOptions options)
    : cache_(cache), options_(std::move(options)) {}

QueryResult QueryEngine::run_single(const Query& query) {
  const auto snap = cache_.at(query.time);
  const DerivedHandles derived = resolve_derived(
      cache_, snap, options_, query.kind == QueryKind::kSybil,
      query.kind == QueryKind::kCommunity,
      query.kind == QueryKind::kInfluence);
  obs::ScopedTimer timer(
      query_ns_[static_cast<std::size_t>(query.kind)].get());
  return execute(*snap, query, options_, derived, lane_scratch());
}

void QueryEngine::register_metrics(obs::Registry& registry,
                                   const std::string& prefix) const {
  for (std::size_t k = 0; k < query_ns_.size(); ++k) {
    registry.attach_histogram(
        prefix + ".query." + to_string(static_cast<QueryKind>(k)),
        query_ns_[k]);
  }
  registry.attach_histogram(prefix + ".batch", batch_ns_);
}

std::vector<QueryResult> QueryEngine::run_batch(
    std::span<const Query> queries) {
  // Admission-to-completion: the batch clock starts here, before grouping,
  // and stops when every result slot is filled.
  obs::TraceSpan batch_span("serve.run_batch");
  obs::ScopedTimer batch_timer(batch_ns_.get());
  std::vector<QueryResult> results(queries.size());

  // Group admission indices by snapshot time, first-appearance order, so
  // each distinct day is resolved through the cache exactly once.
  std::vector<std::pair<double, std::vector<std::uint32_t>>> groups;
  std::unordered_map<double, std::size_t> group_of;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(queries[i].time, groups.size());
    if (inserted) groups.push_back({queries[i].time, {}});
    groups[it->second].second.push_back(static_cast<std::uint32_t>(i));
  }

  // Resolve distinct times one WINDOW at a time, one lane per time: each
  // lane task resolves its time's snapshot AND the derived state its
  // group needs, so a window's cold days materialize and their
  // sybil/community/influence builds run side by side (cache builds run
  // outside the cache lock). The window is the cache capacity: holding
  // more handles than that would defeat the cache's own memory bound
  // (evicted snapshots stay alive through their shared_ptr). Each
  // distinct time is still resolved exactly once per batch, and every
  // build is a serial function of its snapshot, identical whichever lane
  // runs it, so results stay byte-identical.
  //
  // Small query grain: per-query cost is wildly skewed (hub egos
  // dominate), and determinism never depends on the split — each query
  // only writes its own admission slot.
  constexpr std::size_t kQueryGrain = 16;
  const std::size_t window = std::max<std::size_t>(cache_.capacity(), 1);
  std::vector<std::shared_ptr<const SanSnapshot>> snapshots;
  std::vector<DerivedHandles> derived_of;
  for (std::size_t g0 = 0; g0 < groups.size(); g0 += window) {
    const std::size_t count = std::min(window, groups.size() - g0);
    snapshots.assign(count, nullptr);
    derived_of.assign(count, {});
    core::parallel_for(
        count,
        [&](std::size_t j) {
          const auto& [time, indices] = groups[g0 + j];
          snapshots[j] = cache_.at(time);
          // Derived state resolves ONCE per group, before the
          // data-parallel fan-out, so query lanes share one immutable
          // build instead of racing (or privately duplicating) it.
          bool need_sybil = false, need_community = false;
          bool need_influence = false;
          scan_needs(queries, indices, need_sybil, need_community,
                     need_influence);
          derived_of[j] = resolve_derived(cache_, snapshots[j], options_,
                                          need_sybil, need_community,
                                          need_influence);
        },
        /*grain=*/1);
    for (std::size_t j = 0; j < count; ++j) {
      const auto& snap = snapshots[j];
      const auto& indices = groups[g0 + j].second;
      const DerivedHandles& derived = derived_of[j];
      core::parallel_for(
          indices.size(),
          [&](std::size_t i_of) {
            const std::uint32_t i = indices[i_of];
            obs::ScopedTimer timer(
                query_ns_[static_cast<std::size_t>(queries[i].kind)].get());
            results[i] = execute(*snap, queries[i], options_, derived,
                                 lane_scratch());
          },
          kQueryGrain);
    }
  }
  return results;
}

}  // namespace san::serve
