// Typed, deterministic instrumentation bus.
//
// Every layer of the stack (sim, net, storage, dfs, mr, spark) publishes
// into one Registry per simulation engine instead of keeping ad-hoc
// counters. Three primitives:
//
//  * counters   — always on: a branch plus an integer add;
//  * histograms — value distributions (message sizes, op latencies),
//                 recorded only while the registry is enabled;
//  * spans      — begin/end (and instant) events in virtual time on a
//                 (node, track) pair, recorded only while enabled.
//
// All strings are interned up front to TagIds, so the hot path never
// allocates. Exports are deterministic: identical simulations produce
// byte-identical Chrome trace_event JSON and identical metrics tables.
//
// Sharded recording: a parallel (sharded) simulation engine calls
// ConfigureShards(n) before its run and sets a thread-local shard slot on
// every worker thread (SetCurrentShard). While shard logs exist, every
// counter / histogram / event recorded from a worker thread lands in that
// shard's private log — no cross-thread contention on the hot path — and
// MergeShards() folds everything back into the main stream afterwards.
// Events merge *deterministically*: the engine brackets each scheduler
// action (one process dispatch or one engine event) with MarkBlock, and
// the merge is a k-way walk over block boundaries keyed by
// (virtual time, action kind, action key), which reproduces exactly the
// global min-first order a single-threaded engine would have recorded.
// Intern is mutex-protected so shard threads may intern concurrently;
// TagIds may then depend on interleaving, but every exporter resolves tags
// by *name*, so exported bytes stay deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "common/units.h"

namespace pstk::obs {

/// Interned string id. 0 is reserved for "no tag".
using TagId = std::uint32_t;
inline constexpr TagId kNoTag = 0;

/// Power-of-two-bucketed histogram with exact count/sum/min/max. Buckets
/// cover ~[2^-32, 2^32) (bucket = binary exponent + 32, clamped), which
/// spans nanoseconds to gigabytes for the latency/size samples we record.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double value);

  /// Fold another histogram into this one (bucket-wise; count/sum/min/max
  /// combine exactly). Used when merging per-shard logs.
  void Merge(const Histogram& other);

  /// Build a histogram from externally accumulated raw state (same bucket
  /// layout). Lets lock-free recorders (buf::Stats) publish into metrics
  /// tables. min/max may be approximations of the recorder's knowledge.
  [[nodiscard]] static Histogram FromRaw(
      std::uint64_t count, double sum, double min, double max,
      const std::array<std::uint64_t, kBuckets>& buckets);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

enum class Phase : std::uint8_t {
  kBegin,    // Chrome "B"
  kEnd,      // Chrome "E"
  kInstant,  // Chrome "i"
};

/// One recorded event. `node` exports as the Chrome pid, `track` as the
/// tid (the sim layer uses its Pid as the track).
struct Event {
  SimTime time = 0;
  std::int32_t node = 0;
  std::uint32_t track = 0;
  TagId tag = kNoTag;
  TagId detail = kNoTag;
  Phase phase = Phase::kInstant;
};

/// The per-engine instrumentation bus. Single-threaded by default; a
/// sharded engine opts into per-shard logs (see the file comment), which
/// make recording safe from its worker threads without locking.
class Registry {
 public:
  Registry() { names_.push_back(""); }  // TagId 0 = kNoTag

  /// Turn span/histogram recording on or off. Enabling reserves event
  /// storage so recording does not reallocate mid-run.
  void Enable(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Intern `name`, returning a stable id. Idempotent. Safe to call from
  /// shard worker threads (serialized internally).
  TagId Intern(std::string_view name);
  [[nodiscard]] const std::string& Name(TagId tag) const { return names_[tag]; }

  // -- sharded recording ---------------------------------------------------

  /// Create `shards` private logs. Until MergeShards(), a thread whose
  /// shard slot is set (SetCurrentShard) records into its own log.
  void ConfigureShards(int shards);
  /// Bind the calling thread to shard `shard` of whatever sharded
  /// registries it touches (-1 clears the slot). Thread-local.
  static void SetCurrentShard(int shard);
  /// Start a new merge block in the current shard's log: all events
  /// recorded until the next MarkBlock belong to one scheduler action.
  /// `kind` orders actions at equal time (engine events before process
  /// dispatches); `key` breaks remaining ties (event seq / pid) exactly
  /// like the engine's scheduling heaps do.
  void MarkBlock(SimTime t, std::uint8_t kind, std::uint64_t key);
  /// Fold every shard log back into the main stream: counters summed,
  /// histograms merged, events k-way-merged in block order. Destroys the
  /// shard logs; the registry reverts to single-threaded recording.
  void MergeShards();
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shard_logs_.size());
  }

  // -- counters (always on) ----------------------------------------------
  void Add(TagId tag, std::uint64_t delta = 1) {
    if (ShardLog* log = CurrentShardLog()) {
      log->Add(tag, delta);
      return;
    }
    if (tag >= counters_.size()) counters_.resize(names_.size(), 0);
    counters_[tag] += delta;
  }
  [[nodiscard]] std::uint64_t counter(TagId tag) const {
    return tag < counters_.size() ? counters_[tag] : 0;
  }
  [[nodiscard]] std::uint64_t CounterByName(std::string_view name) const;

  // -- histograms (gated on enabled) -------------------------------------
  void Observe(TagId tag, double value) {
    if (!enabled_) return;
    if (ShardLog* log = CurrentShardLog()) {
      log->histograms[tag].Record(value);
      return;
    }
    histograms_[tag].Record(value);
  }
  /// nullptr if nothing was recorded under `tag`.
  [[nodiscard]] const Histogram* histogram(TagId tag) const;
  /// Fold an externally built histogram into `tag` (bypasses the enabled_
  /// gate: used by bench harnesses publishing process-global stats into a
  /// finished run's table).
  void MergeHistogram(TagId tag, const Histogram& h) {
    if (h.count() > 0) histograms_[tag].Merge(h);
  }

  // -- spans / instants (gated on enabled) -------------------------------
  void BeginSpan(std::int32_t node, std::uint32_t track, TagId tag,
                 SimTime t) {
    if (enabled_) Push({t, node, track, tag, kNoTag, Phase::kBegin});
  }
  void EndSpan(std::int32_t node, std::uint32_t track, TagId tag, SimTime t) {
    if (enabled_) Push({t, node, track, tag, kNoTag, Phase::kEnd});
  }
  void Instant(std::int32_t node, std::uint32_t track, TagId tag, SimTime t,
               TagId detail = kNoTag) {
    if (enabled_) Push({t, node, track, tag, detail, Phase::kInstant});
  }

  /// Name a (node, track) pair for the trace viewer (thread_name metadata).
  void SetTrackName(std::int32_t node, std::uint32_t track,
                    std::string_view name);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  // -- exporters ----------------------------------------------------------

  /// Complete Chrome trace_event JSON ({"traceEvents": [...]}) with
  /// pid=node and tid=track, timestamps in microseconds. Deterministic:
  /// identical event sequences serialize byte-identically.
  [[nodiscard]] std::string ToChromeTraceJson() const;

  /// Append this registry's events as comma-separated JSON objects (no
  /// surrounding brackets) with every pid offset by `pid_offset` and
  /// process names prefixed by `process_prefix` — lets a bench harness
  /// merge several runs into one trace file.
  void AppendChromeTraceEvents(std::string* out, int pid_offset,
                               std::string_view process_prefix) const;

  /// Counter + histogram summary (name-sorted, zero entries skipped),
  /// rendered through the shared table emitter.
  [[nodiscard]] Table MetricsTable(std::string title) const;

 private:
  /// Private per-shard recording buffer (see ConfigureShards).
  struct ShardLog {
    /// One scheduler action's worth of events: everything in
    /// events[begin ..) until the next block's begin.
    struct Block {
      SimTime t;
      std::uint8_t kind;  // 0 = engine event, 1 = process dispatch
      std::uint64_t key;  // event seq / pid — the scheduler's tie-break
      std::size_t begin;  // index into events
    };
    std::vector<Event> events;
    std::vector<Block> blocks;
    std::vector<std::uint64_t> counters;
    std::map<TagId, Histogram> histograms;

    void Add(TagId tag, std::uint64_t delta) {
      if (tag >= counters.size()) counters.resize(tag + 1, 0);
      counters[tag] += delta;
    }
  };

  [[nodiscard]] ShardLog* CurrentShardLog() {
    if (shard_logs_.empty()) return nullptr;
    const int s = tls_shard_;
    if (s < 0 || s >= static_cast<int>(shard_logs_.size())) return nullptr;
    return shard_logs_[static_cast<std::size_t>(s)].get();
  }

  void Push(const Event& e) {
    if (ShardLog* log = CurrentShardLog()) {
      log->events.push_back(e);
    } else {
      events_.push_back(e);
    }
  }

  static thread_local int tls_shard_;

  bool enabled_ = false;
  std::mutex intern_mu_;  // shard threads intern user trace tags concurrently
  std::map<std::string, TagId, std::less<>> index_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> counters_;
  std::map<TagId, Histogram> histograms_;
  std::vector<Event> events_;
  std::vector<std::unique_ptr<ShardLog>> shard_logs_;
  std::map<std::pair<std::int32_t, std::uint32_t>, std::string> track_names_;
};

}  // namespace pstk::obs
