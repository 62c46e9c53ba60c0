// Batched query execution over cached snapshots — the serving engine that
// turns the paper's one-shot "implications" programs (link prediction,
// attribute inference, reciprocity prediction, §7) into a high-throughput
// query path.
//
// Execution model: a batch is admitted as an ordered span of queries.
// Distinct snapshot times are resolved through the SnapshotCache in first-
// appearance order (so a day materializes at most once per batch, however
// many queries address it), a cache-capacity window of times at once, one
// pool lane per time. Each lane task resolves its time's snapshot (a miss
// extends the nearest resident earlier snapshot) AND the derived
// sybil/community/influence state its group needs, so a window's cold
// days build side by side; each build stays serial. Then each time-group
// runs data-parallel on the src/core/ substrate. Every query is
// self-contained — per-query scratch restores its all-zero invariant after
// each call and results are written to the query's admission slot — so
// batch output is byte-identical to the single-query reference path at any
// SAN_THREADS count.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "serve/snapshot_cache.hpp"

namespace san::serve {

struct QueryEngineOptions {
  apps::LinkPredictionWeights link_weights;
  apps::AttributeInferenceOptions inference;  // top_k comes from the query
  apps::ReciprocityWeights reciprocity_weights;
  /// sybil/community builder options for the per-snapshot derived state
  /// kept on the cache entries. Slots are keyed by snapshot only, so every
  /// engine sharing one SnapshotCache must use identical DerivedOptions.
  DerivedOptions derived;
};

class QueryEngine {
 public:
  explicit QueryEngine(SnapshotCache& cache, QueryEngineOptions options = {});

  /// Reference path: resolve the snapshot and execute one query serially.
  QueryResult run_single(const Query& query);

  /// Serving path: execute the batch, returning one result per query in
  /// admission order. Equal to running run_single on each query in turn,
  /// byte-for-byte, at any thread count.
  std::vector<QueryResult> run_batch(std::span<const Query> queries);

  const QueryEngineOptions& options() const { return options_; }

  /// Attach this engine's service-latency telemetry to `registry`:
  /// `<prefix>.query.<kind>` per-query execute latency (one histogram per
  /// QueryKind, named with to_string: linkrec/attrs/ego/recip/sybil/
  /// community/influence) and `<prefix>.batch` admission-to-completion
  /// latency per run_batch call.
  /// Latencies record only while obs::timing_enabled(); attach is
  /// per-instance (two engines under different prefixes stay independent).
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

 private:
  SnapshotCache& cache_;
  QueryEngineOptions options_;
  // One latency histogram per QueryKind, indexed by the enum value, plus
  // whole-batch admission-to-completion. Lock-free per-thread rows, so the
  // data-parallel batch lanes record without contention.
  std::array<std::shared_ptr<obs::Histogram>, kQueryKindCount> query_ns_ =
      [] {
        std::array<std::shared_ptr<obs::Histogram>, kQueryKindCount> a;
        for (auto& h : a) h = std::make_shared<obs::Histogram>();
        return a;
      }();
  std::shared_ptr<obs::Histogram> batch_ns_ =
      std::make_shared<obs::Histogram>();
};

}  // namespace san::serve
