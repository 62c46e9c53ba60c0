// In-process side of the serving benchmark (run.py). Two modes:
//
//   servebench_trace reference NET WORKLOAD [--start D] [--sample K]
//     Answers every K-th query of WORKLOAD on the reference path and
//     prints `<query index>\t<result line>` per sampled query: a static
//     workload through QueryEngine::run_single, a live one (--start D)
//     through LiveReplay + LiveTimeline, ingesting every step in order.
//     run.py compares these lines with the CLI's replay output.
//
//   servebench_trace trace NET WORKLOAD [--start D] [--sample K]
//                    [--lines FILE] [--chrome FILE]
//     Replays WORKLOAD by calling each layer's public functions in turn:
//     parse_workload_line, grouping by (time, kind), SnapshotCache::at,
//     DerivedCache::{sybil,community,influence}, QueryEngine::run_batch on
//     each group once its state is resident (so the call is pure
//     execution), QueryResult::to_line, and for live workloads
//     LiveReplay::batch_until and LiveTimeline::ingest. The replay runs
//     untraced, then with a span around every call (name, start, end,
//     parent, batch id, kept in memory), then untraced again; the faster
//     untraced leg is the base of trace.overhead. Splits that exist
//     only inside a layer — materialize, live absorb/advance/publish —
//     come from the layers' own register_metrics telemetry. Prints one
//     flat JSON object of per-layer metrics; --lines receives the
//     rendered result lines (for comparison with the socket stream) and
//     --chrome the spans as a Chrome trace.
//
// Both modes use the configuration run.py gives the CLI: an 8-entry
// snapshot cache (`--cache 8`) and san_tool's default batch of 1024.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/simd/simd.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/serialization.hpp"
#include "san/timeline.hpp"
#include "serve/query.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot_cache.hpp"

namespace {

using namespace san;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCacheSize = 8;
constexpr std::size_t kBatchSize = 1024;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const char* flag(int argc, char** argv, const char* name,
                 const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Workload lines (comments and blanks dropped) with their 1-based line
/// numbers, so parse errors name the same line file replay would.
struct WorkloadLines {
  std::vector<std::string> text;
  std::vector<std::size_t> line_no;
};

WorkloadLines read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read workload " + path);
  WorkloadLines lines;
  std::string line;
  for (std::size_t no = 1; std::getline(in, line); ++no) {
    const auto mark = line.find_first_not_of(" \t\r");
    if (mark == std::string::npos || line[mark] == '#') continue;
    lines.text.push_back(line);
    lines.line_no.push_back(no);
  }
  return lines;
}

// ---- Spans -------------------------------------------------------------

enum SpanName : int {
  kBatch,
  kParse,
  kGroup,
  kSnapshotAt,
  kDerivedSybil,
  kDerivedCommunity,
  kDerivedInfluence,
  kRunBatch,
  kToLine,
  kBatchUntil,
  kIngest,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "batch",
    "parse_workload_line",
    "group_by_time",
    "SnapshotCache::at",
    "DerivedCache::sybil",
    "DerivedCache::community",
    "DerivedCache::influence",
    "QueryEngine::run_batch",
    "QueryResult::to_line",
    "LiveReplay::batch_until",
    "LiveTimeline::ingest",
};

/// Outcome of a SnapshotCache::at span (Span::detail).
enum LookupOutcome : int { kHit, kFirstTouchMiss, kRepeatMiss, kLiveHit };

struct Span {
  int name = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span vector
  std::uint64_t batch = 0;
  // Call-specific payload: a miss/build flag for cache spans, the query
  // kind for run_batch spans.
  int detail = 0;
};

/// In-memory span recorder; disabled, it reads no clock and stores
/// nothing, which is the untraced leg of trace.overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::int64_t open(int name, std::int64_t parent, std::uint64_t batch) {
    if (!enabled_) return -1;
    spans_.push_back({name, obs::now_ns(), 0, parent, batch, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id, int detail = 0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = obs::now_ns();
    spans_[static_cast<std::size_t>(id)].detail = detail;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---- The in-process replay -------------------------------------------

/// Everything one replay of a workload builds: network state, cache,
/// engine and (for live workloads) the ingest frontier.
struct Stack {
  std::unique_ptr<LiveReplay> replay;
  std::unique_ptr<SanTimeline> timeline;
  std::unique_ptr<LiveTimeline> live;
  std::unique_ptr<serve::SnapshotCache> cache;
  std::unique_ptr<serve::QueryEngine> engine;

  Stack(const SocialAttributeNetwork& net, std::optional<double> start) {
    if (!start) {
      timeline = std::make_unique<SanTimeline>(net);
      cache = std::make_unique<serve::SnapshotCache>(*timeline, kCacheSize);
    } else {
      // Exactly `san_tool live --start D`.
      replay = std::make_unique<LiveReplay>(net, *start);
      timeline = std::make_unique<SanTimeline>(replay->seed);
      cache = std::make_unique<serve::SnapshotCache>(*timeline, kCacheSize);
      LiveTimelineOptions options;
      options.initial_tip = *start;
      live = std::make_unique<LiveTimeline>(replay->seed, options);
      cache->bind_live(*live, *start);
    }
    engine = std::make_unique<serve::QueryEngine>(*cache);
  }
};

struct ReplayOutput {
  std::string lines;  // rendered results, one per query, admission order
  std::size_t queries = 0;
  std::size_t now_queries = 0;
  std::size_t events = 0;
  std::size_t batches = 0;
  std::size_t groups = 0;
  std::array<std::size_t, serve::kQueryKindCount> kind_count{};
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Replays `lines` against `stack` in admission batches: at most
/// kBatchSize queries, cut early at every ingest line so queries before
/// it see the pre-ingest epochs (the order `san_tool live` and the server
/// execute).
ReplayOutput replay(const WorkloadLines& lines, Stack& stack,
                    Tracer& tracer) {
  ReplayOutput out;
  serve::SnapshotCache& cache = *stack.cache;
  const auto& derived_options = stack.engine->options().derived;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();

  std::vector<serve::WorkloadStep> steps;
  std::vector<serve::QueryResult> results;
  std::vector<serve::Query> group;
  std::unordered_set<double> seen_times;
  std::size_t next = 0;
  while (next < lines.text.size()) {
    const std::uint64_t batch_id = out.batches++;
    const std::int64_t root = tracer.open(kBatch, -1, batch_id);

    // parse: up to kBatchSize queries, or through the next ingest line.
    std::int64_t span = tracer.open(kParse, root, batch_id);
    steps.clear();
    std::size_t batch_queries = 0;
    bool ends_in_ingest = false;
    while (next < lines.text.size() && batch_queries < kBatchSize) {
      serve::WorkloadStep step;
      serve::parse_workload_line(lines.text[next], lines.line_no[next], step);
      ++next;
      if (step.ingest) {
        steps.push_back(std::move(step));
        ends_in_ingest = true;
        break;
      }
      steps.push_back(std::move(step));
      ++batch_queries;
    }
    tracer.close(span);

    // group: distinct times in first-appearance order, then (time, kind)
    // groups in first-appearance order within each time.
    span = tracer.open(kGroup, root, batch_id);
    std::vector<double> times;
    std::map<double, std::vector<std::vector<std::size_t>>> by_time;
    for (std::size_t i = 0; i < batch_queries; ++i) {
      const serve::Query& q = steps[i].query;
      auto [it, fresh] = by_time.try_emplace(q.time);
      if (fresh) times.push_back(q.time);
      auto& groups = it->second;
      auto g = std::find_if(groups.begin(), groups.end(), [&](const auto& v) {
        return steps[v.front()].query.kind == q.kind;
      });
      if (g == groups.end()) {
        groups.emplace_back();
        g = std::prev(groups.end());
      }
      g->push_back(i);
      ++out.kind_count[static_cast<std::size_t>(q.kind)];
      out.now_queries += q.now;
    }
    tracer.close(span);
    out.queries += batch_queries;

    results.assign(batch_queries, serve::QueryResult{});
    for (const double time : times) {
      const auto stats_before = cache.stats();
      span = tracer.open(kSnapshotAt, root, batch_id);
      const auto snap = cache.at(time);
      const auto stats_after = cache.stats();
      const bool first_touch = seen_times.insert(time).second;
      tracer.close(span, stats_after.misses > stats_before.misses
                             ? (first_touch ? kFirstTouchMiss : kRepeatMiss)
                         : stats_after.live_hits > stats_before.live_hits
                             ? kLiveHit
                             : kHit);
      for (const auto& indices : by_time[time]) {
        const serve::QueryKind kind = steps[indices.front()].query.kind;
        const auto derived = [&](int name, auto&& call) {
          const std::uint64_t before = cache.derived().misses();
          const std::int64_t d = tracer.open(name, root, batch_id);
          call();
          tracer.close(d, cache.derived().misses() > before ? 1 : 0);
        };
        if (kind == serve::QueryKind::kSybil) {
          derived(kDerivedSybil,
                  [&] { cache.derived().sybil(snap, derived_options.sybil); });
        } else if (kind == serve::QueryKind::kCommunity) {
          derived(kDerivedCommunity, [&] {
            cache.derived().community(snap, derived_options.community);
          });
        } else if (kind == serve::QueryKind::kInfluence) {
          derived(kDerivedInfluence, [&] { cache.derived().influence(snap); });
        }
        group.clear();
        for (const std::size_t i : indices) group.push_back(steps[i].query);
        span = tracer.open(kRunBatch, root, batch_id);
        auto group_results = stack.engine->run_batch(group);
        tracer.close(span, static_cast<int>(kind));
        for (std::size_t j = 0; j < indices.size(); ++j) {
          results[indices[j]] = std::move(group_results[j]);
        }
        ++out.groups;
      }
    }

    span = tracer.open(kToLine, root, batch_id);
    for (std::size_t i = 0; i < batch_queries; ++i) {
      out.lines += results[i].to_line(steps[i].query);
      out.lines += '\n';
    }
    tracer.close(span);

    if (ends_in_ingest) {
      if (!stack.live) {
        throw std::invalid_argument(
            "ingest line in a static workload (needs --start D)");
      }
      span = tracer.open(kBatchUntil, root, batch_id);
      IngestBatch ingest = stack.replay->batch_until(steps.back().tip);
      tracer.close(span);
      out.events += ingest.social_nodes.size() + ingest.social_links.size() +
                    ingest.attribute_links.size();
      span = tracer.open(kIngest, root, batch_id);
      stack.live->ingest(ingest);
      tracer.close(span);
    }
    tracer.close(root);
  }
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

// ---- Reference path ----------------------------------------------------

/// Every `every`-th query (by query index) answered on the reference path:
/// run_single against a fresh static stack in time order (so a day is
/// materialized once), or — for a live workload — a fresh LiveReplay +
/// LiveTimeline ingesting every step in admission order.
std::map<std::size_t, std::string> reference_sample(
    const SocialAttributeNetwork& net, const WorkloadLines& lines,
    std::optional<double> start, std::size_t every) {
  Stack stack(net, start);
  std::map<std::size_t, std::string> out;
  std::vector<std::pair<std::size_t, serve::Query>> sampled;
  std::size_t query_index = 0;
  for (std::size_t i = 0; i < lines.text.size(); ++i) {
    serve::WorkloadStep step;
    serve::parse_workload_line(lines.text[i], lines.line_no[i], step);
    if (step.ingest) {
      if (!stack.live) {
        throw std::invalid_argument(
            "ingest line in a static workload (needs --start D)");
      }
      stack.live->ingest(stack.replay->batch_until(step.tip));
      continue;
    }
    if (query_index % every == 0) {
      if (stack.live) {
        out[query_index] =
            stack.engine->run_single(step.query).to_line(step.query);
      } else {
        sampled.emplace_back(query_index, step.query);
      }
    }
    ++query_index;
  }
  std::stable_sort(sampled.begin(), sampled.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.time < b.second.time;
                   });
  for (const auto& [index, query] : sampled) {
    out[index] = stack.engine->run_single(query).to_line(query);
  }
  return out;
}

// ---- Metrics -----------------------------------------------------------

struct Sample {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  double quantile(double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(values.size()))));
    return values[std::min(rank, values.size()) - 1];
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double registry_value(const std::vector<std::pair<std::string, double>>& snap,
                      const std::string& name) {
  for (const auto& [key, value] : snap) {
    if (key == name) return value;
  }
  return 0.0;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\": [";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %lld, \"batch\": %llu}}",
                  i == 0 ? "" : ",", kSpanNames[s.name],
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.batch));
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

int run_trace(const SocialAttributeNetwork& net, double load_s,
              const WorkloadLines& lines, std::optional<double> start,
              std::size_t every, const char* lines_path,
              const char* chrome_path) {
  // Untraced legs: the same replay with spans and layer timing off, run
  // before and after the traced leg; the faster one is the base of
  // trace.overhead, so first-touch page faults do not count as tracing.
  const auto untraced = [&] {
    obs::set_timing_enabled(false);
    Stack stack(net, start);
    Tracer off(false);
    return replay(lines, stack, off);
  };
  ReplayOutput plain = untraced();

  // Traced leg. Its stack is gone before the second untraced leg, so
  // both reuse the memory the previous leg freed.
  obs::set_timing_enabled(true);
  Tracer tracer(true);
  ReplayOutput traced;
  std::vector<std::pair<std::string, double>> telemetry;
  serve::SnapshotCache::Stats cache_stats;
  double index_s = 0.0, epochs = 0.0;
  {
    const auto index_start = Clock::now();
    Stack stack(net, start);
    index_s = seconds_since(index_start);
    obs::Registry registry;
    stack.cache->register_metrics(registry, "cache");
    if (stack.live) stack.live->register_metrics(registry, "live");
    traced = replay(lines, stack, tracer);
    telemetry = registry.snapshot();
    cache_stats = stack.cache->stats();
    if (stack.live) epochs = static_cast<double>(stack.live->stats().epochs);
  }
  if (ReplayOutput again = untraced(); again.wall_s < plain.wall_s) {
    plain = std::move(again);
  }

  // Correctness: both legs render identical bytes, and sampled lines
  // equal the reference path.
  std::size_t mismatches = plain.lines == traced.lines ? 0 : 1;
  const auto reference = reference_sample(net, lines, start, every);
  {
    std::size_t index = 0, pos = 0;
    while (pos < traced.lines.size()) {
      const std::size_t nl = traced.lines.find('\n', pos);
      const auto it = reference.find(index);
      if (it != reference.end() &&
          traced.lines.compare(pos, nl - pos, it->second) != 0) {
        ++mismatches;
      }
      pos = nl + 1;
      ++index;
    }
  }

  // Per-layer aggregation over spans: self time = duration minus the
  // child spans it contains.
  const auto& spans = tracer.spans();
  std::vector<double> self_s(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_s[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self_s[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  std::array<double, kSpanNameCount> layer_self{};
  double serving_s = 0.0;
  Sample miss_ms, build_ms[3], ingest_ms;
  std::size_t at_calls = 0, at_misses = 0, at_first_touch = 0, at_live = 0,
              derived_calls = 0,
              derived_builds = 0, builds[3] = {0, 0, 0};
  std::array<double, serve::kQueryKindCount> execute_s{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    layer_self[s.name] += self_s[i];
    if (s.name == kBatch) serving_s += ms / 1e3;
    if (s.name == kSnapshotAt) {
      ++at_calls;
      if (s.detail == kFirstTouchMiss || s.detail == kRepeatMiss) {
        ++at_misses;
        miss_ms.add(ms);
      }
      at_first_touch += s.detail == kFirstTouchMiss;
      at_live += s.detail == kLiveHit;
    }
    if (s.name >= kDerivedSybil && s.name <= kDerivedInfluence) {
      ++derived_calls;
      if (s.detail == 1) {
        ++derived_builds;
        ++builds[s.name - kDerivedSybil];
        build_ms[s.name - kDerivedSybil].add(ms);
      }
    }
    if (s.name == kRunBatch) execute_s[static_cast<std::size_t>(s.detail)] += ms / 1e3;
    if (s.name == kIngest) ingest_ms.add(ms);
  }

  std::vector<std::pair<std::string, double>> m;
  m.emplace_back("serialization.load_s", load_s);
  m.emplace_back("timeline.index_s", index_s);
  m.emplace_back("timeline.materialize_ms.p50",
                 registry_value(telemetry, "cache.materialize.p50_us") / 1e3);
  m.emplace_back("timeline.materialize_ms.p99",
                 registry_value(telemetry, "cache.materialize.p99_us") / 1e3);
  m.emplace_back("timeline.advance_ms.p50",
                 registry_value(telemetry, "live.advance.p50_us") / 1e3);
  m.emplace_back("snapshot_cache.hits",
                 static_cast<double>(at_calls - at_misses - at_live));
  m.emplace_back("snapshot_cache.misses", static_cast<double>(at_misses));
  m.emplace_back("snapshot_cache.evictions",
                 static_cast<double>(cache_stats.evictions));
  m.emplace_back("snapshot_cache.coalesced",
                 static_cast<double>(cache_stats.coalesced));
  m.emplace_back("snapshot_cache.live_hits", static_cast<double>(at_live));
  m.emplace_back("snapshot_cache.hit_ratio",
                 ratio(static_cast<double>(at_calls - at_misses),
                       static_cast<double>(at_calls)));
  // Lookups of a time already looked up before: the ratio after warm-up,
  // which a larger cache or a better policy can move.
  m.emplace_back("snapshot_cache.warm_hit_ratio",
                 ratio(static_cast<double>(at_calls - at_misses),
                       static_cast<double>(at_calls - at_first_touch)));
  m.emplace_back("snapshot_cache.busy_s", layer_self[kSnapshotAt]);
  m.emplace_back("snapshot_cache.miss_ms.p50", miss_ms.quantile(0.50));
  m.emplace_back("snapshot_cache.miss_ms.p99", miss_ms.quantile(0.99));
  const char* derived_kinds[3] = {"sybil", "community", "influence"};
  for (int k = 0; k < 3; ++k) {
    m.emplace_back(std::string("derived_cache.builds.") + derived_kinds[k],
                   static_cast<double>(builds[k]));
  }
  for (int k = 0; k < 3; ++k) {
    m.emplace_back(
        std::string("derived_cache.build_ms.") + derived_kinds[k] + ".p50",
        build_ms[k].quantile(0.50));
  }
  m.emplace_back("derived_cache.hit_ratio",
                 ratio(static_cast<double>(derived_calls - derived_builds),
                       static_cast<double>(derived_calls)));
  m.emplace_back("derived_cache.busy_s", layer_self[kDerivedSybil] +
                                             layer_self[kDerivedCommunity] +
                                             layer_self[kDerivedInfluence]);
  m.emplace_back("query_engine.execute_s", layer_self[kRunBatch]);
  for (std::size_t k = 0; k < serve::kQueryKindCount; ++k) {
    m.emplace_back(std::string("query_engine.execute_us.") +
                       serve::to_string(static_cast<serve::QueryKind>(k)) +
                       ".mean",
                   ratio(execute_s[k] * 1e6,
                         static_cast<double>(traced.kind_count[k])));
  }
  m.emplace_back("query_engine.groups_per_batch",
                 ratio(static_cast<double>(traced.groups),
                       static_cast<double>(traced.batches)));
  m.emplace_back("query.parse_us.mean",
                 ratio(layer_self[kParse] * 1e6,
                       static_cast<double>(lines.text.size())));
  m.emplace_back("query.render_us.mean",
                 ratio(layer_self[kToLine] * 1e6,
                       static_cast<double>(traced.queries)));
  m.emplace_back("query.render_bytes",
                 ratio(static_cast<double>(traced.lines.size()),
                       static_cast<double>(traced.queries)));
  m.emplace_back("live_timeline.ingest_ms.p50", ingest_ms.quantile(0.50));
  m.emplace_back("live_timeline.ingest_ms.p99", ingest_ms.quantile(0.99));
  for (const char* phase : {"absorb", "advance", "publish"}) {
    m.emplace_back(std::string("live_timeline.") + phase + "_ms.p50",
                   registry_value(telemetry, std::string("live.") + phase +
                                                 ".p50_us") /
                       1e3);
  }
  m.emplace_back("live_timeline.epochs", epochs);
  m.emplace_back("live_timeline.events", static_cast<double>(traced.events));
  m.emplace_back("live_timeline.busy_s", layer_self[kIngest]);
  m.emplace_back("live_timeline.ingest_eps",
                 ratio(static_cast<double>(traced.events), layer_self[kIngest]));
  const double lanes =
      static_cast<double>(core::ThreadPool::instance().thread_count());
  m.emplace_back("process.cpu_s", plain.cpu_s);
  m.emplace_back("process.cpu_util", ratio(plain.cpu_s, plain.wall_s * lanes));
  m.emplace_back("trace.overhead", ratio(traced.wall_s, plain.wall_s));
  for (std::size_t k = 0; k < serve::kQueryKindCount; ++k) {
    m.emplace_back(std::string("mix.") +
                       serve::to_string(static_cast<serve::QueryKind>(k)),
                   ratio(static_cast<double>(traced.kind_count[k]),
                         static_cast<double>(traced.queries)));
  }
  m.emplace_back("mix.now", ratio(static_cast<double>(traced.now_queries),
                                  static_cast<double>(traced.queries)));
  const std::pair<const char*, double> shares[] = {
      {"share.parse", layer_self[kParse]},
      {"share.group", layer_self[kGroup]},
      {"share.snapshot_cache", layer_self[kSnapshotAt]},
      {"share.derived_cache", layer_self[kDerivedSybil] +
                                  layer_self[kDerivedCommunity] +
                                  layer_self[kDerivedInfluence]},
      {"share.query_engine", layer_self[kRunBatch]},
      {"share.render", layer_self[kToLine]},
      {"share.live_timeline",
       layer_self[kBatchUntil] + layer_self[kIngest]},
      {"share.replay_loop", layer_self[kBatch]},
  };
  for (const auto& [name, busy] : shares) {
    m.emplace_back(name, ratio(busy, serving_s));
  }
  m.emplace_back("env.lanes", lanes);
  m.emplace_back("env.simd_active",
                 static_cast<double>(core::simd::active_level()));
  m.emplace_back("env.simd_detected",
                 static_cast<double>(core::simd::detected_level()));
  m.emplace_back("env.nodes", static_cast<double>(net.social_node_count()));
  m.emplace_back("check.queries", static_cast<double>(traced.queries));
  m.emplace_back("check.reference_sampled",
                 static_cast<double>(reference.size()));
  m.emplace_back("check.mismatches", static_cast<double>(mismatches));

  std::printf("{");
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i == 0 ? "" : ", ", m[i].first.c_str(),
                std::isfinite(m[i].second) ? m[i].second : 0.0);
  }
  std::printf("}\n");

  if (lines_path != nullptr) {
    std::ofstream out(lines_path, std::ios::binary);
    out << traced.lines;
    if (!out) throw std::runtime_error(std::string("short write to ") + lines_path);
  }
  if (chrome_path != nullptr) write_chrome_trace(chrome_path, spans);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4 || (std::strcmp(argv[1], "reference") != 0 &&
                   std::strcmp(argv[1], "trace") != 0)) {
    std::fprintf(stderr,
                 "usage: servebench_trace reference|trace NET WORKLOAD"
                 " [--start D] [--sample K]"
                 " [--lines FILE] [--chrome FILE]\n");
    return 2;
  }
  try {
    std::optional<double> start;
    if (const char* text = flag(argc, argv, "--start", nullptr)) {
      start = std::strtod(text, nullptr);
    }
    const std::size_t every = std::max<std::size_t>(
        1, std::strtoull(flag(argc, argv, "--sample", "1"), nullptr, 10));
    const auto load_start = Clock::now();
    const auto net = load_san(std::string(argv[2]));
    const double load_s = seconds_since(load_start);
    const auto lines = read_lines(argv[3]);
    if (std::strcmp(argv[1], "reference") == 0) {
      std::printf("# lanes=%zu simd_active=%s simd_detected=%s nodes=%zu\n",
                  core::ThreadPool::instance().thread_count(),
                  core::simd::level_name(core::simd::active_level()),
                  core::simd::level_name(core::simd::detected_level()),
                  net.social_node_count());
      for (const auto& [index, line] :
           reference_sample(net, lines, start, every)) {
        std::printf("%zu\t%s\n", index, line.c_str());
      }
      return std::fflush(stdout) == 0 ? 0 : 1;
    }
    return run_trace(net, load_s, lines, start, every,
                     flag(argc, argv, "--lines", nullptr),
                     flag(argc, argv, "--chrome", nullptr));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_trace: %s\n", e.what());
    return 1;
  }
}
