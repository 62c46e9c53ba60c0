// Per-snapshot DERIVED serving state — the expensive artifacts the
// sybil/community/influence query kinds need beyond the raw snapshot: the
// degree-bounded SybilLimit topology, a full label-propagation community
// run, and the influence first-pick scan. Each is computed at most once
// per resident snapshot and shared by every query in a batch (and across
// batches) that addresses the same time.
//
// Storage: the state lives in slots on the SnapshotCache entry that owns
// the snapshot (serve/snapshot_cache.hpp), plus one slot set for the
// latest live tip, so it lives exactly as long as its entry — eviction and
// clear() drop it with the snapshot. DerivedCache is only the typed
// accessor over those slots plus their hit/miss counters; it holds no
// state of its own.
//
// Determinism contract: every builder is a deterministic serial function
// of the immutable snapshot and the options fixed at engine construction
// (SybilLimit's O(n + links) counting projection plus its routes, seeded
// label propagation at most O(n + links) per sweep, a max-degree scan),
// so the state is byte-identical WHEREVER it is built — on a cache hit, a
// coalesced wait, or a private build that stores nothing (a snapshot the
// cache does not hold, or a pool lane that must not block on a foreign
// build). Slots are keyed by snapshot only, NOT by options: every engine
// sharing one SnapshotCache must use identical DerivedOptions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/community.hpp"
#include "apps/influence_max.hpp"
#include "apps/sybil.hpp"
#include "obs/metrics.hpp"
#include "san/snapshot.hpp"

namespace san::serve {

class SnapshotCache;

/// Options for the derived builders, fixed per engine (and per cache —
/// see the keying note above).
struct DerivedOptions {
  apps::SybilLimitOptions sybil;
  apps::CommunityOptions community;
};

/// One snapshot's community run plus the per-label member counts the
/// `community` query renders.
struct CommunityState {
  apps::CommunityResult result;
  std::vector<std::uint64_t> size;  // members per dense community id
};

/// One snapshot's influence precomputation: the globally best first seed
/// (apps::best_first_pick), so a no-seed `influence` query never scans
/// all nodes on the serving path.
struct InfluenceState {
  graph::NodeId first_pick = apps::kNoFirstPick;
};

/// SnapshotCache::derived(): the derived state for `snap`, built on first
/// request. Safe from any number of threads; duplicate requests coalesce
/// onto the first build except on a core-substrate pool lane, which
/// builds a private copy instead of blocking (identical bytes either way).
class DerivedCache {
 public:
  using Handle = std::shared_ptr<const SanSnapshot>;

  std::shared_ptr<const apps::SybilLimit> sybil(
      const Handle& snap, const apps::SybilLimitOptions& options);
  std::shared_ptr<const CommunityState> community(
      const Handle& snap, const apps::CommunityOptions& options);
  std::shared_ptr<const InfluenceState> influence(const Handle& snap);

  /// Requests that found their state built or in flight / requests that
  /// found none and built it (private builds included).
  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }

 private:
  friend class SnapshotCache;
  explicit DerivedCache(SnapshotCache& cache) : cache_(cache) {}
  SnapshotCache& cache_;
  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  // Build durations per kind (every build, private ones included),
  // recorded only while obs::timing_enabled().
  std::shared_ptr<obs::Histogram> sybil_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> community_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> influence_ns_ =
      std::make_shared<obs::Histogram>();
};

}  // namespace san::serve
