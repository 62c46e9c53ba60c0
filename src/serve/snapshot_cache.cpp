#include "serve/snapshot_cache.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"

namespace san::serve {
namespace {

/// The coalescing step behind every build, entered with the cache mutex
/// held through `lock`. A valid `slot` is a (possibly in-flight) build to
/// join — except on a pool lane, which must not block on a foreign build
/// (the builder may be queued behind that very pool job) and builds a
/// private copy instead. An invalid slot is claimed: built outside the
/// lock, then `settle(value)` runs under the lock before the future is
/// fulfilled. A throwing build resets the slot (so a later request
/// retries) and calls `settle(nullptr)`. The caller's `lock` releases
/// whatever is still held.
template <typename T, typename Build, typename Settle>
std::shared_ptr<const T> coalesce(
    std::unique_lock<std::mutex>& lock,
    std::shared_future<std::shared_ptr<const T>>& slot, Build&& build,
    Settle&& settle) {
  using Ptr = std::shared_ptr<const T>;
  if (slot.valid()) {
    const auto joined = slot;
    lock.unlock();
    const bool ready = joined.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    return ready || !core::in_parallel_region() ? joined.get() : build();
  }
  std::promise<Ptr> promise;
  slot = promise.get_future().share();
  lock.unlock();
  Ptr value;
  try {
    value = build();
  } catch (...) {
    lock.lock();
    slot = {};
    settle(nullptr);
    promise.set_exception(std::current_exception());
    throw;
  }
  lock.lock();
  settle(value);
  promise.set_value(value);
  return value;
}

}  // namespace

SnapshotCache::SnapshotCache(const SanTimeline& timeline, std::size_t capacity)
    : timeline_(timeline), capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("SnapshotCache: capacity must be >= 1");
  }
}

std::shared_ptr<const SanSnapshot> SnapshotCache::at(double time) {
  if (std::isnan(time)) {
    // NaN != NaN would defeat both the index lookup and eviction's erase,
    // leaking one stale index entry per call. The workload parser already
    // rejects NaN; guard the programmatic path too.
    throw std::invalid_argument("SnapshotCache: time must not be NaN");
  }
  if (live_ != nullptr && time > live_horizon_) {
    // Past the frozen horizon the exact per-day history does not exist —
    // it is being written right now. Resolve against the latest published
    // ingest epoch: one atomic load, never the cache mutex, never a
    // materialization, so queries cannot block on ingest.
    live_hits_->add();
    return live_->tip();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (const auto it = index_.find(time); it != index_.end()) {
    hits_->add();
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
    return (*it->second)->snapshot;
  }
  // A time already in flight on another thread is joined (or, on a pool
  // lane, built as an unregistered duplicate — the registered builder
  // still owns the cache insert); only the registered builder runs the
  // miss hook.
  auto& slot = inflight_[time];
  const bool joining = slot.valid();
  (joining ? coalesced_ : misses_)->add();
  peak_inflight_->update_max(static_cast<std::int64_t>(inflight_.size()));
  const auto hook = joining ? nullptr : miss_hook_;
  return coalesce(
      lock, slot,
      [&] {
        if (hook) hook(time);
        return materialize(time);
      },
      [&](const Handle& landed) {
        inflight_.erase(time);
        if (landed == nullptr) return;
        if (lru_.size() >= capacity_) {
          // The evicted entry takes its derived state with it.
          evictions_->add();
          index_.erase(lru_.back()->snapshot->time);
          lru_.pop_back();
        }
        lru_.push_front(std::make_shared<Entry>(landed));
        index_.emplace(time, lru_.begin());
      });
}

SnapshotCache::Handle SnapshotCache::materialize(double time) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (idle_.empty()) {
    idle_.push_back(std::make_unique<SanTimeline::Materializer>(timeline_));
  }
  auto materializer = std::move(idle_.back());
  idle_.pop_back();
  // The nearest resident predecessor (greatest time <= `time`) is the
  // delta base. A plain lookup: it neither promotes the entry nor waits on
  // an in-flight time, and the handle keeps the base alive if it is
  // evicted mid-build.
  Handle base;
  if (const auto it = index_.upper_bound(time); it != index_.begin()) {
    base = (*std::prev(it)->second)->snapshot;
  }
  lock.unlock();
  auto snap = std::make_shared<SanSnapshot>();
  bool delta = false;
  {
    obs::TraceSpan span("cache.materialize");
    obs::ScopedTimer timer(materialize_ns_.get());
    if (base != nullptr) {
      delta = materializer->extend(*base, time, *snap);
    } else {
      materializer->materialize(time, *snap);
    }
  }
  lock.lock();
  if (delta) delta_misses_->add();
  idle_.push_back(std::move(materializer));
  return snap;
}

template <typename T, typename Build>
std::shared_ptr<const T> SnapshotCache::derive(const Handle& snap,
                                               Slot<T> Entry::*slot,
                                               Build&& build) {
  std::unique_lock<std::mutex> lock(mutex_);
  // The entry holding exactly `snap` (same time, same object), else the
  // tip slot. The local handle keeps the slot alive through the build.
  EntryPtr entry;
  if (const auto it = index_.find(snap->time);
      it != index_.end() && (*it->second)->snapshot == snap) {
    entry = *it->second;
  } else if (tip_ != nullptr && tip_->snapshot == snap) {
    entry = tip_;
  } else if (live_ != nullptr && live_->tip() == snap) {
    // The newest published epoch takes over the tip slot and releases the
    // previous one. The slot holds the epoch strongly, so the live
    // timeline cannot recycle its buffer while derived state refers to it.
    entry = tip_ = std::make_shared<Entry>(snap);
  } else {
    // Not held by the cache: build privately, store nothing.
    derived_.misses_->add();
    lock.unlock();
    return build();
  }
  // A claimed slot counts its miss up front; a joined one counts a hit,
  // or a miss when it builds a private copy (on a pool lane, where
  // waiting on the foreign build could deadlock). Only the registered
  // builder runs the miss hook.
  Slot<T>& cell = (*entry).*slot;
  const bool joining = cell.valid();
  if (!joining) derived_.misses_->add();
  const auto hook = joining ? nullptr : miss_hook_;
  bool private_copy = false;
  auto value = coalesce(
      lock, cell,
      [&] {
        private_copy = joining;
        if (hook) hook(snap->time);
        return build();
      },
      [](const auto&) {});
  if (joining) (private_copy ? derived_.misses_ : derived_.hits_)->add();
  return value;
}

std::shared_ptr<const apps::SybilLimit> DerivedCache::sybil(
    const Handle& snap, const apps::SybilLimitOptions& options) {
  return cache_.derive(snap, &SnapshotCache::Entry::sybil, [&] {
    obs::TraceSpan span("cache.derive.sybil");
    obs::ScopedTimer timer(sybil_ns_.get());
    return std::make_shared<const apps::SybilLimit>(snap->social, options);
  });
}

std::shared_ptr<const CommunityState> DerivedCache::community(
    const Handle& snap, const apps::CommunityOptions& options) {
  return cache_.derive(snap, &SnapshotCache::Entry::community, [&] {
    obs::TraceSpan span("cache.derive.community");
    obs::ScopedTimer timer(community_ns_.get());
    auto state = std::make_shared<CommunityState>();
    state->result = apps::detect_communities(*snap, options);
    state->size.assign(state->result.community_count, 0);
    for (const std::uint32_t label : state->result.label) ++state->size[label];
    return std::shared_ptr<const CommunityState>(std::move(state));
  });
}

std::shared_ptr<const InfluenceState> DerivedCache::influence(
    const Handle& snap) {
  return cache_.derive(snap, &SnapshotCache::Entry::influence, [&] {
    obs::TraceSpan span("cache.derive.influence");
    obs::ScopedTimer timer(influence_ns_.get());
    return std::make_shared<const InfluenceState>(
        InfluenceState{apps::best_first_pick(snap->social)});
  });
}

std::size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

SnapshotCache::Stats SnapshotCache::stats() const {
  Stats out;
  out.hits = hits_->value();
  out.misses = misses_->value();
  out.delta_misses = delta_misses_->value();
  out.coalesced = coalesced_->value();
  out.evictions = evictions_->value();
  out.peak_inflight = static_cast<std::uint64_t>(peak_inflight_->value());
  out.live_hits = live_hits_->value();
  out.derived_hits = derived_.hits();
  out.derived_misses = derived_.misses();
  return out;
}

void SnapshotCache::reset_stats() {
  hits_->reset();
  misses_->reset();
  delta_misses_->reset();
  coalesced_->reset();
  evictions_->reset();
  live_hits_->reset();
  derived_.hits_->reset();
  derived_.misses_->reset();
  peak_inflight_->reset();
  materialize_ns_->reset();
  derived_.sybil_ns_->reset();
  derived_.community_ns_->reset();
  derived_.influence_ns_->reset();
}

void SnapshotCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  tip_.reset();
  reset_stats();
}

void SnapshotCache::register_metrics(obs::Registry& registry,
                                     const std::string& prefix) const {
  registry.attach_counter(prefix + ".hits", hits_);
  registry.attach_counter(prefix + ".misses", misses_);
  registry.attach_counter(prefix + ".delta_misses", delta_misses_);
  registry.attach_counter(prefix + ".coalesced", coalesced_);
  registry.attach_counter(prefix + ".evictions", evictions_);
  registry.attach_counter(prefix + ".live_hits", live_hits_);
  registry.attach_counter(prefix + ".derived_hits", derived_.hits_);
  registry.attach_counter(prefix + ".derived_misses", derived_.misses_);
  registry.attach_gauge(prefix + ".peak_inflight", peak_inflight_);
  registry.attach_histogram(prefix + ".materialize", materialize_ns_);
  registry.attach_histogram(prefix + ".derive.sybil", derived_.sybil_ns_);
  registry.attach_histogram(prefix + ".derive.community",
                            derived_.community_ns_);
  registry.attach_histogram(prefix + ".derive.influence",
                            derived_.influence_ns_);
}

void SnapshotCache::bind_live(const LiveTipSource& live, double horizon) {
  if (std::isnan(horizon)) {
    throw std::invalid_argument("SnapshotCache: horizon must not be NaN");
  }
  live_ = &live;
  live_horizon_ = horizon;
}

void SnapshotCache::set_miss_hook(std::function<void(double)> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  miss_hook_ = std::move(hook);
}

}  // namespace san::serve
