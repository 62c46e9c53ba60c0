// SanTimeline: temporal index over a SocialAttributeNetwork that makes the
// daily snapshot sweep — the paper's 79 crawls replayed as snapshot_at(t)
// for t = 1..79 — the fast path.
//
// Cost model:
//   - construction: both link logs are stably time-sorted ONCE into
//     columnar arrays (O(E log E) total, the only comparison sort);
//   - snapshot_at(t): binary-search the time prefix, radix-order the
//     <= t slice with chunk-parallel counting sorts, rebuild CSR —
//     O(links <= t + nodes), zero comparison sorting;
//   - advance(snapshot, t'): build the snapshot at t' FROM its state at
//     t <= t' by appending only the (t, t'] log slice into per-node
//     adjacency slack (graph/slack.hpp) — O(new links + nodes) per day,
//     falling back to a full O(prefix) rebuild when slack is exhausted or
//     a previously dropped link activates;
//   - extend(base, t', out): write a DENSE snapshot at t' from an
//     immutable snapshot `base` at t <= t' — untouched nodes' lists are
//     copied, touched nodes merge in the (t, t'] slice — O(nodes + links)
//     of copying and merging plus O(k log k) for a k-link slice, instead
//     of three counting-scatter passes over the whole prefix. The
//     SnapshotCache builds a miss this way from its nearest resident
//     earlier entry;
//   - sweep(times, visit): advance one snapshot through the grid, reusing
//     one scratch set, so a whole replay costs O(total links) amortized
//     instead of O(sum of prefixes) and the steady state allocates nothing.
//
// Results are bit-identical to the naive san::snapshot_at at every time and
// at any SAN_THREADS count: the stable time order fixes members_of
// ordering, CSR content is order-independent, the chunked counting sorts
// use thread-count-independent grains (core/counting_scatter.hpp), and the
// per-node phases write disjoint ranges (see core/parallel.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "san/snapshot.hpp"

namespace san {

class SanTimeline {
 private:
  struct Scratch;

 public:
  explicit SanTimeline(const SocialAttributeNetwork& network);
  SanTimeline(const SanTimeline&) = delete;
  SanTimeline& operator=(const SanTimeline&) = delete;
  ~SanTimeline();

  /// Reusable materialization state: one Materializer + one SanSnapshot make
  /// repeated snapshot_at calls allocation-free in the steady state (the
  /// serving layer's SnapshotCache holds a pool of these). Not thread-safe;
  /// the timeline it borrows must outlive it.
  class Materializer {
   public:
    explicit Materializer(const SanTimeline& timeline);
    Materializer(const Materializer&) = delete;
    Materializer& operator=(const Materializer&) = delete;
    ~Materializer();

    /// Rebuild `snap` as of `time` from scratch, reusing both this scratch
    /// set and the snapshot's own arrays (CSR buffers ping-pong between the
    /// two). Densely packed — the layout for snapshots that will be shared
    /// and read, not advanced.
    void materialize(double time, SanSnapshot& snap);

    /// Delta path: bring `snap` to `time` by appending only the links that
    /// arrived since this Materializer last produced it. Falls back to a
    /// full (slack-layout) rebuild when `snap` is not the snapshot this
    /// Materializer built last, `time` regresses, per-node slack is
    /// exhausted, or a previously dropped link activates (its endpoint
    /// joined, which belongs mid-list in members_of time order). Either
    /// way the result is bit-identical to materialize(time, snap).
    void advance(double time, SanSnapshot& snap);

    /// Delta miss: build `out` as of `time` from `base`, a snapshot of
    /// this timeline at an earlier or equal time, by merging only the
    /// (base.time, time] log slice into it. `out` comes out densely packed
    /// and bit-identical to materialize(time, out); `base` is only read,
    /// so threads may extend one shared snapshot concurrently. Returns
    /// true on the delta path. Takes the full materialize path instead
    /// (returning false) when `base` dropped links (one may activate
    /// mid-list in members_of), when `time` precedes base.time, when the
    /// attribute id space differs, or when `base` does not match this
    /// timeline's prefixes at base.time. Like advance(), it assumes the
    /// timeline absorbed nothing at or before base.time since `base` was
    /// built. Leaves no delta state behind for advance().
    bool extend(const SanSnapshot& base, double time, SanSnapshot& out);

    /// Drop the delta state so the next advance() performs a full
    /// (slack-layout) rebuild. Required after the borrowed timeline
    /// absorbs events at or before this Materializer's last-produced
    /// time — such events shift the indexed log under the recorded
    /// prefixes, which advance() cannot detect on its own (LiveTimeline
    /// calls this on every late batch).
    void invalidate();

   private:
    const SanTimeline* timeline_;
    std::unique_ptr<Scratch> scratch_;
  };

  std::size_t social_node_total() const { return social_node_times_.size(); }
  std::size_t attribute_node_total() const { return attr_times_.size(); }
  std::uint64_t social_link_total() const { return edge_time_.size(); }
  std::uint64_t attribute_link_total() const { return link_time_.size(); }
  /// Largest timestamp of any node or link (0.0 for an empty network).
  double max_time() const { return max_time_; }

  /// Live-ingest extension (san/live_timeline.hpp): index every event
  /// `network` gained since this timeline last saw it (construction or a
  /// previous absorb) by stable-merging the new log slices into the
  /// columnar time-sorted arrays — identical to rebuilding the timeline
  /// from `network`, at O(moved suffix + new events) instead of a full
  /// re-sort. `network` must be the same append-only network this timeline
  /// indexes. NOT thread-safe: absorbing while any other thread reads this
  /// timeline (snapshot_at, a Materializer, a SnapshotCache bound to it)
  /// is a data race — LiveTimeline keeps its growing timeline writer-only
  /// and gives historical readers a separate frozen index for exactly that
  /// reason. Absorbing events at or before a Materializer's last-produced
  /// time additionally requires invalidating that Materializer.
  void absorb(const SocialAttributeNetwork& network);

  /// Snapshot at time t in O(links <= t); equivalent to
  /// san::snapshot_at(network, t).
  SanSnapshot snapshot_at(double time) const;

  /// Snapshot of the complete network (t = +infinity).
  SanSnapshot snapshot_full() const;

  /// Materialize a snapshot at each element of `times` in order and invoke
  /// visit(time, snapshot) for it. The snapshot reference is only valid
  /// during the call — its buffers are reused for the next day. Consecutive
  /// times advance incrementally (the delta path); a non-ascending grid
  /// still works but pays a full rebuild at each regression.
  void sweep(
      std::span<const double> times,
      const std::function<void(double, const SanSnapshot&)>& visit) const;

  /// Reference sweep that rebuilds every snapshot from scratch (the PR 2
  /// behavior). Same results as sweep(); kept for benchmarking the delta
  /// path against and for callers that want dense snapshot layouts.
  void sweep_full_rebuild(
      std::span<const double> times,
      const std::function<void(double, const SanSnapshot&)>& visit) const;

 private:
  void materialize(double time, SanSnapshot& snap, Scratch& s,
                   bool slack) const;
  void advance(double time, SanSnapshot& snap, Scratch& s) const;
  bool extend(const SanSnapshot& base, double time, SanSnapshot& out,
              Scratch& s) const;
  // The log-slice filters shared by advance() and extend(): each link at
  // sorted log position [begin, end) whose endpoints exist goes to the
  // scratch's delta arrays, the rest are deferred.
  void gather_social_slice(std::size_t n_social, std::size_t begin,
                           std::size_t end, Scratch& s) const;
  void gather_attribute_slice(std::size_t n_social, std::size_t begin,
                              std::size_t end,
                              std::span<const std::uint8_t> created,
                              Scratch& s) const;
  void build_social(std::size_t n_social, std::size_t edge_prefix,
                    SanSnapshot& snap, Scratch& s, bool slack) const;
  void build_attribute_links(std::size_t n_social, std::size_t link_prefix,
                             SanSnapshot& snap, Scratch& s, bool slack) const;

  // Columnar logs, stably sorted by time (ties keep append order).
  std::vector<double> social_node_times_;
  std::vector<NodeId> edge_src_, edge_dst_;
  std::vector<double> edge_time_;
  std::vector<NodeId> link_user_;
  std::vector<AttrId> link_attr_;
  std::vector<double> link_time_;
  std::vector<AttributeType> attr_types_;
  std::vector<double> attr_times_;
  // Attribute ids in stable creation-time order plus the matching sorted
  // times, so both materialize and advance touch exactly the attributes
  // created inside their time window.
  std::vector<AttrId> attr_order_;
  std::vector<double> attr_sorted_times_;
  double max_time_ = 0.0;

  // absorb() scratch, reused across batches so the live ingest hot path
  // stops allocating once the arrays reach their high-water size.
  struct AbsorbScratch {
    std::vector<std::uint64_t> perm, order;
    std::vector<double> chunk_times, time_scratch;
    std::vector<NodeId> id_scratch;
    std::vector<AttrId> attr_scratch;
  };
  AbsorbScratch absorb_;
};

}  // namespace san
