// LRU cache of materialized SanSnapshots, the storage layer of the serving
// engine (serve/query_engine.hpp). A SanTimeline makes one snapshot cheap —
// O(links <= t) — but a query workload concentrated on a few popular days
// would still re-materialize the same CSR over and over. The cache keys
// snapshots by their exact query time and hands them out as
// shared_ptr<const SanSnapshot> (an evicted snapshot stays valid for every
// query still holding it). Each entry also carries its snapshot's derived
// serving state (serve/derived_cache.hpp), so that state is dropped with
// the entry.
//
// Delta misses: the index is ordered by time, so a miss takes the resident
// entry with the greatest time <= t as its base and builds the new day
// with SanTimeline::Materializer::extend — a dense copy of the base plus
// the (base, t] log slice, bit-identical to a full materialize — instead
// of re-materializing the whole prefix. Without such a base (or when
// extend declines it) the miss materializes in full. The base lookup
// happens under the lock the miss already takes to check out a
// Materializer; it does not promote the base in the LRU and never waits
// on an in-flight time, so which base a miss finds can depend on timing,
// but never a byte of the result.
//
// Concurrency: the mutex only guards the index — NEVER a build. Every
// build (a cold materialization or a derived slot) goes through one
// coalescing step: a cold request registers an in-flight shared_future,
// releases the lock, and builds on the calling thread, so DISTINCT builds
// run concurrently while duplicate requests coalesce onto the registered
// future (one build each, stampede-proof). The one exception: a duplicate
// request arriving on a core-substrate pool lane
// (core::in_parallel_region()) must not block on a foreign build — the
// builder may be queued behind that very pool job — so it builds a private
// unregistered copy instead of waiting. Materializer scratch sets are
// pooled: steady-state misses recycle buffer capacity, and the pool
// high-water mark equals the peak miss concurrency.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "san/live_timeline.hpp"
#include "san/timeline.hpp"
#include "serve/derived_cache.hpp"

namespace san::serve {

class SnapshotCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Misses built by extending their nearest resident earlier snapshot
    /// (SanTimeline::Materializer::extend) instead of a full materialize.
    std::uint64_t delta_misses = 0;
    /// Requests that found their time already in flight on another
    /// thread: they either waited on that build or — when arriving on a
    /// core-substrate pool lane, where waiting could deadlock — built a
    /// private unregistered copy. Either way no new cache entry resulted.
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    /// High-water mark of concurrently materializing misses — > 1 proves
    /// cold misses on distinct times overlapped instead of serializing.
    std::uint64_t peak_inflight = 0;
    /// Requests past the live horizon, resolved to the published ingest
    /// epoch with one atomic load (never through the materializing path).
    std::uint64_t live_hits = 0;
    /// Derived-state traffic (serve/derived_cache.hpp): a hit means a
    /// sybil/community/influence query reused state already built for its
    /// snapshot; a miss built it (private builds included).
    std::uint64_t derived_hits = 0;
    std::uint64_t derived_misses = 0;
  };

  /// `capacity` >= 1 snapshots are kept resident; the timeline must outlive
  /// the cache.
  SnapshotCache(const SanTimeline& timeline, std::size_t capacity);

  /// The snapshot at exactly `time`, materialized on first use. Times are
  /// compared bit-exactly: query workloads address snapshots by a shared
  /// grid of days, not by free-form floats. Safe to call from any number of
  /// threads; a cold time materializes once however many callers race it.
  std::shared_ptr<const SanSnapshot> at(double time);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  Stats stats() const;

  /// The per-snapshot derived state (sybil topology, community labels,
  /// influence first pick). A request finds the entry that holds its
  /// snapshot (same time, same object) or, for the latest published live
  /// tip, the one tip slot, which holds that epoch strongly until a derived
  /// request on a newer tip replaces it. A snapshot the cache does not hold
  /// (evicted, a pool lane's private copy, a superseded tip) is built
  /// privately and stored nowhere.
  DerivedCache& derived() { return derived_; }

  /// One coherent zero-point for every stat, including the lock-free
  /// live_hits path: all counters advance their obs epoch baselines in
  /// one pass (obs/metrics.hpp), replacing the old split reset that
  /// zeroed the mutex-guarded fields and the live-hit atomic separately
  /// (a stats() racing that could see one half reset and not the other).
  void reset_stats();

  /// Drop every resident snapshot and its derived state (outstanding
  /// shared_ptrs stay valid) and zero the stats. In-flight materializations
  /// are not interrupted; each lands in the cleared cache when it
  /// completes. Benches use this to measure cold-start throughput.
  void clear();

  /// Attach this cache's per-instance telemetry to `registry` under
  /// `prefix`: the Stats counters plus a `<prefix>.materialize` latency
  /// histogram (every cold-miss build, delta or full) and one
  /// `<prefix>.derive.{sybil,community,influence}` histogram per derived
  /// kind (every derived build, private ones included), all recorded only
  /// while obs::timing_enabled(). Attach-only — recording never touches the
  /// registry, and two caches registered under different prefixes stay
  /// fully independent.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Observability/test hook, invoked with the snapshot time on the
  /// building thread right before a registered build starts (outside the
  /// cache lock): a cold miss, or a derived slot claimed on a resident
  /// entry or the tip. Private copies built on pool lanes never run it.
  /// Tests use it to hold builds at a barrier and prove that distinct
  /// cold times overlap or that lanes do not block on a held build; pass
  /// nullptr to remove.
  void set_miss_hook(std::function<void(double)> hook);

  /// Bind a live ingest frontier: at() resolves every time PAST `horizon`
  /// — including the `now` token, which parses to +infinity — to the live
  /// timeline's latest published epoch with one atomic load, lock-free
  /// with respect to ingest. Times at or before the horizon keep
  /// resolving exactly against the frozen timeline, and nothing is ever
  /// invalidated: history is immutable, and a time past the old tip
  /// simply resolves against the newer epoch on its next request (tip
  /// snapshots are intentionally not LRU-cached — an epoch handle would
  /// go stale on the next publish). `horizon` defaults to the frozen
  /// timeline's max event time; `live` must outlive the cache. Bind
  /// DURING SETUP, before any concurrent at() calls: the binding fields
  /// are read without synchronization on the serve path, so rebinding
  /// while queries are in flight is a data race (and could route a
  /// historical time to the tip). Any LiveTipSource works — LiveTimeline
  /// and ShardedLiveTimeline both publish through the same
  /// atomic-shared_ptr tip.
  void bind_live(const LiveTipSource& live) {
    bind_live(live, timeline_.max_time());
  }
  void bind_live(const LiveTipSource& live, double horizon);

 private:
  friend class DerivedCache;
  using Handle = std::shared_ptr<const SanSnapshot>;
  template <typename T>
  using Slot = std::shared_future<std::shared_ptr<const T>>;
  /// A resident snapshot and its derived slots (an invalid future means
  /// "never requested"; a valid one is the possibly in-flight build).
  struct Entry {
    explicit Entry(Handle s) : snapshot(std::move(s)) {}
    Handle snapshot;
    Slot<apps::SybilLimit> sybil;
    Slot<CommunityState> community;
    Slot<InfluenceState> influence;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  Handle materialize(double time);
  template <typename T, typename Build>
  std::shared_ptr<const T> derive(const Handle& snap, Slot<T> Entry::*slot,
                                  Build&& build);

  const SanTimeline& timeline_;
  const std::size_t capacity_;
  const LiveTipSource* live_ = nullptr;
  double live_horizon_ = 0.0;

  // Per-instance telemetry cells (obs/metrics.hpp): lock-free per-thread
  // slots, so the live-hit fast path and stats() never need the mutex.
  // The mutex-path counters (hits/misses/...) are only ever bumped while
  // mutex_ is held, but live on the same substrate so reset_stats() is
  // one coherent epoch cut across all of them.
  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> delta_misses_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> coalesced_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> evictions_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> live_hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Gauge> peak_inflight_ = std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Histogram> materialize_ns_ =
      std::make_shared<obs::Histogram>();

  DerivedCache derived_{*this};

  mutable std::mutex mutex_;
  // Idle Materializer pool (guarded by mutex_); one is checked out per
  // materialization and returned when it lands.
  std::vector<std::unique_ptr<SanTimeline::Materializer>> idle_;
  std::unordered_map<double, Slot<SanSnapshot>> inflight_;
  std::list<EntryPtr> lru_;  // front = most recently used
  // Ordered by time, so a miss finds its nearest resident predecessor.
  std::map<double, std::list<EntryPtr>::iterator> index_;
  EntryPtr tip_;  // derived slots of the latest live tip requested
  std::function<void(double)> miss_hook_;
};

}  // namespace san::serve
